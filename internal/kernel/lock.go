package kernel

// Lock personalities for the machine (DESIGN.md §16): spinlocks with
// a capped exponential backoff ladder, sleep locks with direct-handoff
// wake-one through the scheduler, and an RCU-style read-mostly domain
// whose writers wait out the grace period on-CPU. All costs come from
// the personality's osprofile.LockCosts, so the same workload run under
// Linux, FreeBSD, and Solaris shows each system's distinct
// spin-vs-sleep crossover.
//
// Charging rules worth stating once:
//
//   - Spin waiting (failed polls and backoff) goes to the per-CPU spin
//     ledger, not the busy ledger: the CPU is burning cycles but doing
//     no useful work, and the audit engine checks the split.
//   - Sleep-lock blocking costs nothing while blocked — the CPU goes on
//     to run something else (or accrues idle), which is the whole point
//     of sleeping.
//   - A releasing sleep-lock holder hands the lock directly to the FIFO
//     head waiter (ownership never becomes free in between), so convoys
//     are fair and wait times are bounded by queue depth; the waiter
//     still pays its dispatch latency before running.
//   - RCU grace-period waits are charged to the writer CPU's spin
//     ledger: the writer busy-waits for readers to drain, keeping the
//     idle ledger meaning "truly idle".

import (
	"repro/internal/sim"
	"repro/internal/stats"
)

// LockKind selects the contention strategy of a Lock.
type LockKind int

const (
	// SpinLock burns CPU polling with capped exponential backoff.
	SpinLock LockKind = iota
	// SleepLock blocks the thread and hands off through the scheduler.
	SleepLock
)

// String names the kind (used by exhibit labels).
func (k LockKind) String() string {
	if k == SpinLock {
		return "spin"
	}
	return "sleep"
}

// Lock is a mutual-exclusion lock on a machine.
type Lock struct {
	m     *Machine
	kind  LockKind
	held  bool
	owner int
	// waiters is the sleep-lock FIFO block queue.
	waiters runQueue

	// Acquires counts successful acquisitions; Releases releases.
	Acquires uint64
	// Releases counts releases.
	Releases uint64
	// Contended counts acquisitions that had to wait; Uncontended the
	// ones granted immediately. Contended+Uncontended == Acquires.
	Contended   uint64
	Uncontended uint64
	// Blocks counts sleep-lock blocks; Wakeups the handoff wakeups.
	// Blocks == Wakeups once the machine drains.
	Blocks  uint64
	Wakeups uint64
	// WaitHist observes the wait time of every contended acquisition.
	WaitHist stats.Histogram
}

// NewLock creates a lock of the given kind on the machine.
func (m *Machine) NewLock(kind LockKind) *Lock {
	return &Lock{m: m, kind: kind, owner: -1}
}

// acquire executes t's OpLock on CPU c. On success t.pc advances; a
// failed spin poll leaves pc in place (the op retries at the thread's
// next turn, later in virtual time by the backoff), and a sleep block
// parks the thread with pc still at the OpLock (release advances it
// during handoff).
func (l *Lock) acquire(c int, t *Thread) {
	m := l.m
	costs := &m.os.Lock
	if l.kind == SpinLock {
		if !l.held {
			if t.backoff > 0 {
				// The poll that finally wins: the wait ends here, before
				// the acquire charge, so WaitHist measures pure waiting.
				l.Contended++
				l.WaitHist.Observe(int64(m.now[c].Sub(t.waitStart)))
				if m.rec != nil {
					m.rec.EndAt(m.now[c], t.track, "spin", 0)
				}
				t.backoff = 0
			} else {
				l.Uncontended++
			}
			l.held = true
			l.owner = t.tid
			l.Acquires++
			m.advanceBusy(c, PhaseSyscall, costs.SpinAcquire)
			t.pc++
			return
		}
		// Failed poll: charge the check plus the current backoff to the
		// spin ledger and double the ladder, capped. Old profile JSONs
		// may carry zero quanta; clamp to a positive floor so the ladder
		// always advances virtual time (no livelock).
		q := costs.SpinCheck
		if q <= 0 {
			q = sim.Duration(1)
		}
		cap := costs.SpinBackoffMax
		if cap < q {
			cap = q
		}
		if t.backoff == 0 {
			t.waitStart = m.now[c]
			if m.rec != nil {
				m.rec.BeginAt(m.now[c], t.track, "spin")
			}
			t.backoff = q
		} else {
			t.backoff *= 2
			if t.backoff > cap {
				t.backoff = cap
			}
		}
		m.advanceSpin(c, q+t.backoff)
		return
	}
	// Sleep lock.
	if !l.held {
		l.held = true
		l.owner = t.tid
		l.Acquires++
		l.Uncontended++
		m.advanceBusy(c, PhaseSyscall, costs.SleepAcquire)
		t.pc++
		return
	}
	m.advanceBusy(c, PhaseSyscall, costs.SleepBlock)
	t.waitStart = m.now[c]
	l.waiters.push(t)
	l.Blocks++
	m.block(c, t)
}

// release executes t's OpUnlock on CPU c.
func (l *Lock) release(c int, t *Thread) {
	m := l.m
	costs := &m.os.Lock
	t.pc++
	l.Releases++
	if l.kind == SpinLock {
		l.held = false
		l.owner = -1
		m.advanceBusy(c, PhaseSyscall, costs.SpinAcquire)
		return
	}
	if l.waiters.len() == 0 {
		l.held = false
		l.owner = -1
		m.advanceBusy(c, PhaseSyscall, costs.SleepAcquire)
		return
	}
	// Direct handoff: ownership passes to the FIFO head without the lock
	// ever becoming free, so late-arriving spinners can't barge.
	w := l.waiters.pop()
	m.advanceBusy(c, PhaseSyscall, costs.SleepWake)
	l.owner = w.tid
	l.Wakeups++
	l.Acquires++
	l.Contended++
	w.pc++
	l.WaitHist.Observe(int64(m.now[c].Sub(w.waitStart)))
	m.ready(c, w)
}

// RCU is a read-mostly synchronization domain: readers run short
// sections concurrently at near-zero cost; writers wait out the grace
// period until every reader that started before the synchronize has
// finished.
type RCU struct {
	m *Machine
	// lastReaderEnd is the virtual time the latest read-side section
	// ends; a synchronize started before it waits for the difference.
	lastReaderEnd sim.Time

	// Readers counts read-side sections; Syncs writer synchronizations.
	Readers uint64
	Syncs   uint64
}

// NewRCU creates an RCU domain on the machine.
func (m *Machine) NewRCU() *RCU {
	return &RCU{m: m}
}

// read executes a read-side section of length d on CPU c.
func (r *RCU) read(c int, t *Thread, d sim.Duration) {
	m := r.m
	m.advanceBusy(c, PhaseSyscall, m.os.Lock.RCURead)
	m.advanceBusy(c, PhaseUser, d)
	t.UserTime += d
	r.Readers++
	if m.now[c] > r.lastReaderEnd {
		r.lastReaderEnd = m.now[c]
	}
	t.pc++
}

// synchronize waits out the grace period on CPU c. The conservative
// sequencer guarantees the writer's clock is globally minimal when this
// runs, so lastReaderEnd already covers every reader that could precede
// the synchronize; the gap is charged to the spin ledger (the writer
// busy-waits on-CPU).
func (r *RCU) synchronize(c int, t *Thread) {
	m := r.m
	if gap := r.lastReaderEnd.Sub(m.now[c]); gap > 0 {
		m.advanceSpin(c, gap)
	}
	m.advanceBusy(c, PhaseSyscall, m.os.Lock.RCUSync)
	r.Syncs++
	t.pc++
}
