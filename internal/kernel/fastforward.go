package kernel

// Periodic fast-forward (DESIGN.md §16). The uniprocessor benchmarks
// loop one program tens of thousands of times, and after a lap or two
// the machine's state repeats exactly: the same threads blocked in the
// same calls, the same bytes buffered, the same queue and dispatch-table
// order — only the clock and the counters have moved. Time is integer
// nanoseconds and no charge depends on the absolute clock, so from a
// repeated state every later period charges exactly what the last one
// did, and k more periods can be applied as k times the last period's
// deltas instead of being stepped.
//
// Run arms the detector on machines that are eligible (one CPU, no
// recorder, no sampler, no lock or RCU op). At each iteration boundary
// of the first thread it encodes the clock-normalized state and compares
// it with the state saved at the last power-of-two boundary (Brent's
// cycle detection), so a boundary that finds no repeat costs one walk of
// the state and allocates nothing. An observed machine never
// skips: its trace, metrics and time series are stepped, and it is the
// reference every skip is held to.

import (
	"math"

	"repro/internal/sim"
)

// cycle is one run's repeat detector.
type cycle struct {
	// saved is the clock-normalized state at the saved boundary; sized
	// when the run is armed, it never grows.
	saved shape
	// base holds the additive counters at the saved boundary.
	base tally
	// since counts the boundaries after the save; a new save happens
	// when it reaches power, which then doubles (0 before the first).
	since, power int
	// skipped counts the first thread's iterations applied, not stepped.
	skipped uint64
}

// shape is a machine's clock-normalized state as a sequence of words.
// The walk that records it also matches against it, so a boundary
// compares the machine with the saved shape without copying its own.
type shape struct {
	words []int64
	// matching walks compare against words instead of appending; i is
	// the next word to compare and same reports no difference so far.
	matching, same bool
	i              int
}

// put records v, or checks it against the recording when matching.
func (sh *shape) put(v int64) {
	if !sh.matching {
		sh.words = append(sh.words, v)
		return
	}
	sh.same = sh.same && sh.i < len(sh.words) && sh.words[sh.i] == v
	sh.i++
}

// record replaces the shape with m's.
func (sh *shape) record(m *Machine) {
	sh.words, sh.matching = sh.words[:0], false
	m.walk(sh)
}

// matches reports whether m's state has the recorded shape.
func (sh *shape) matches(m *Machine) bool {
	sh.matching, sh.same, sh.i = true, true, 0
	m.walk(sh)
	return sh.same && sh.i == len(sh.words)
}

// tally is the additive part of a machine's state: what a repeating
// period adds to rather than restores.
type tally struct {
	now      sim.Time
	busy     sim.Duration
	phases   [NumPhases]sim.Duration
	switches uint64
	threads  []threadTally
	pipes    []uint64
}

// threadTally is one thread's additive counters.
type threadTally struct {
	loops int
	iters uint64
	user  sim.Duration
}

// armCycle returns the repeat detector for m's run, or nil when the run
// must be stepped: several CPUs (cross-CPU ready times and steals), an
// attached recorder or sampler (every event is recorded), or a lock or
// RCU op (backoff ladders and reader marks are absolute times).
func (m *Machine) armCycle() *cycle {
	if m.ncpu != 1 || m.rec != nil || m.tsSwitch != nil || m.tsRunnable != nil || len(m.threads) == 0 {
		return nil
	}
	for _, t := range m.threads {
		for _, op := range t.ops {
			switch op.Kind {
			case OpLock, OpUnlock, OpRCURead, OpRCUSync:
				return nil
			}
		}
	}
	return &cycle{
		saved: shape{words: make([]int64, 0, m.shapeBound())},
		base: tally{
			threads: make([]threadTally, len(m.threads)),
			pipes:   make([]uint64, len(m.pipes)),
		},
	}
}

// shapeBound is the most words a walk of m hands on: three header words
// (last run, live, queue length), three words per thread plus its one
// place in the run queue or in a pipe's wait list, three words per pipe,
// and the dispatch table's length and entries.
func (m *Machine) shapeBound() int {
	n := 3 + 4*len(m.threads) + 3*len(m.pipes)
	if m.table != nil {
		n += 1 + m.table.capacity
	}
	return n
}

// walk hands sh m's clock-normalized state: everything that decides
// how the machine runs on, with ready times taken relative to the clock.
// Only a queued thread's ready time is ever read (a thread is stamped
// afresh each time it is readied), so the others give 0.
func (m *Machine) walk(sh *shape) {
	now := m.now[0]
	sh.put(int64(m.lastRun[0]))
	sh.put(int64(m.live))
	for _, t := range m.threads {
		var ready sim.Duration
		if t.state == sReady {
			ready = t.readyAt.Sub(now)
		}
		sh.put(int64(t.state) | bit(t.inCall)<<3 | bit(t.started)<<4 | int64(t.pc)<<5)
		sh.put(int64(t.left))
		sh.put(int64(ready))
	}
	q := &m.globalQ
	if m.cpuQ != nil {
		q = &m.cpuQ[0]
	}
	tids(sh, q.q[q.head:])
	for _, p := range m.pipes {
		sh.put(int64(p.buffered))
		tids(sh, p.readers)
		tids(sh, p.writers)
	}
	if m.table != nil {
		sh.put(int64(len(m.table.order)))
		for _, id := range m.table.order {
			sh.put(int64(id))
		}
	}
}

// tids hands sh a thread list's length and identities.
func tids(sh *shape, ts []*Thread) {
	sh.put(int64(len(ts)))
	for _, t := range ts {
		sh.put(int64(t.tid))
	}
}

func bit(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// save records m's additive counters in b.
func (m *Machine) save(b *tally) {
	b.now, b.busy, b.phases, b.switches = m.now[0], m.busyT[0], m.phases, m.switches
	for i, t := range m.threads {
		b.threads[i] = threadTally{t.loops, t.Iters, t.UserTime}
	}
	for i, p := range m.pipes {
		b.pipes[i] = p.BytesTransferred
	}
}

// boundary runs at each iteration boundary of the first thread, which
// is running at pc 0. On a repeat it applies as many further periods as
// leave every thread at least one loop, so the laps in which threads
// exit are stepped.
func (m *Machine) boundary() {
	cy := m.cycle
	cy.since++
	if cy.power > 0 && cy.saved.matches(m) {
		if k := m.periods(&cy.base); k > 0 {
			cy.skipped += uint64(k) * (m.threads[0].Iters - cy.base.threads[0].iters)
			m.skip(&cy.base, k)
			// Re-base on the shifted state, whose shape is the saved one.
			m.save(&cy.base)
			cy.since = 0
			return
		}
	}
	if cy.since >= cy.power {
		cy.saved.record(m)
		m.save(&cy.base)
		cy.since, cy.power = 0, max(1, 2*cy.power)
	}
}

// periods returns how many further periods like the one since b can be
// applied with every thread still one loop short of exiting.
func (m *Machine) periods(b *tally) int {
	k := math.MaxInt
	for i, t := range m.threads {
		if d := b.threads[i].loops - t.loops; d > 0 {
			k = min(k, (t.loops-1)/d)
		}
	}
	return k
}

// skip applies k more periods like the one since b: the clock, the busy
// ledger, the phases, the switch count, every thread's loops, Iters,
// UserTime and (queued threads) ready time, and every pipe's bytes gain
// k times their delta. At one CPU without locks nothing idles or spins
// inside a run, so those ledgers have no delta.
func (m *Machine) skip(b *tally, k int) {
	period := m.now[0].Sub(b.now)
	shift := sim.Duration(k) * period
	m.now[0] = m.now[0].Add(shift)
	m.busyT[0] += sim.Duration(k) * (m.busyT[0] - b.busy)
	for ph := range m.phases {
		m.phases[ph] += sim.Duration(k) * (m.phases[ph] - b.phases[ph])
	}
	m.switches += uint64(k) * (m.switches - b.switches)
	for i, t := range m.threads {
		bt := &b.threads[i]
		t.loops -= k * (bt.loops - t.loops)
		t.Iters += uint64(k) * (t.Iters - bt.iters)
		t.UserTime += sim.Duration(k) * (t.UserTime - bt.user)
		if t.state == sReady {
			t.readyAt = t.readyAt.Add(shift)
		}
	}
	for i, p := range m.pipes {
		p.BytesTransferred += uint64(k) * (p.BytesTransferred - b.pipes[i])
	}
}
