package kernel

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/osprofile"
	"repro/internal/sim"
)

// lockWorkerOps is the L1/L2 worker body: think, acquire, hold, release.
func lockWorkerOps(l *Lock, think, crit sim.Duration) []Op {
	return []Op{
		{Kind: OpThink, D: think},
		{Kind: OpLock, L: l},
		{Kind: OpThink, D: crit},
		{Kind: OpUnlock, L: l},
	}
}

// runContention builds and runs one lock-contention machine.
func runContention(p *osprofile.Profile, kind LockKind, ncpu, nthreads, iters int) (*Machine, *Lock) {
	m := MustMachine(p, ncpu)
	l := m.NewLock(kind)
	for i := 0; i < nthreads; i++ {
		// Stagger thinks so spinners do not phase-lock (same trick the
		// bench layer uses).
		m.SpawnThread("worker", lockWorkerOps(l, 5*sim.Microsecond+sim.Duration(i)*137, 20*sim.Microsecond), iters)
	}
	m.Run()
	return m, l
}

// TestSMPLedgerExactness is the house invariant: per-CPU busy + idle +
// spin equals elapsed to the nanosecond, for every personality, lock
// kind, and CPU count, and the lock flow counters balance.
func TestSMPLedgerExactness(t *testing.T) {
	for _, p := range osprofile.All() {
		for _, kind := range []LockKind{SpinLock, SleepLock} {
			for _, ncpu := range []int{1, 2, 3, 8} {
				m, l := runContention(p, kind, ncpu, ncpu, 50)
				elapsed := m.Elapsed()
				if elapsed <= 0 {
					t.Fatalf("%s %s ncpu=%d: no elapsed time", p, kind, ncpu)
				}
				for c := 0; c < ncpu; c++ {
					busy, idle, spin := m.Ledger(c)
					if sum := busy + idle + spin; sum != elapsed {
						t.Errorf("%s %s ncpu=%d cpu %d: busy %v + idle %v + spin %v = %v, want elapsed %v",
							p, kind, ncpu, c, busy, idle, spin, sum, elapsed)
					}
				}
				wantOps := uint64(ncpu * 50)
				if l.Acquires != wantOps || l.Releases != wantOps {
					t.Errorf("%s %s ncpu=%d: acquires/releases %d/%d, want %d",
						p, kind, ncpu, l.Acquires, l.Releases, wantOps)
				}
				if l.Contended+l.Uncontended != l.Acquires {
					t.Errorf("%s %s ncpu=%d: contended %d + uncontended %d != acquires %d",
						p, kind, ncpu, l.Contended, l.Uncontended, l.Acquires)
				}
				if l.Blocks != l.Wakeups {
					t.Errorf("%s %s ncpu=%d: blocks %d != wakeups %d", p, kind, ncpu, l.Blocks, l.Wakeups)
				}
				if l.WaitHist.N() != l.Contended {
					t.Errorf("%s %s ncpu=%d: wait observations %d != contended %d",
						p, kind, ncpu, l.WaitHist.N(), l.Contended)
				}
				if kind == SpinLock && l.Blocks != 0 {
					t.Errorf("%s spin ncpu=%d: spinlock blocked %d times", p, ncpu, l.Blocks)
				}
			}
		}
	}
}

// TestSMPContentionHappens sanity-checks that multi-CPU runs actually
// contend: with as many workers as CPUs and a critical section four
// times the think time, most acquisitions must wait.
func TestSMPContentionHappens(t *testing.T) {
	for _, kind := range []LockKind{SpinLock, SleepLock} {
		_, l := runContention(osprofile.Linux128(), kind, 8, 8, 50)
		if l.Contended == 0 {
			t.Fatalf("%s: eight workers on one lock never contended", kind)
		}
		if kind == SleepLock && l.Blocks == 0 {
			t.Fatal("sleep lock contended without blocking")
		}
	}
}

// TestSMPDeterministic pins that two identical runs produce identical
// counters — the machine is a pure function of its inputs.
func TestSMPDeterministic(t *testing.T) {
	m1, l1 := runContention(osprofile.Solaris24(), SpinLock, 8, 8, 100)
	m2, l2 := runContention(osprofile.Solaris24(), SpinLock, 8, 8, 100)
	if m1.Elapsed() != m2.Elapsed() || m1.Switches() != m2.Switches() || m1.steals != m2.steals {
		t.Fatalf("identical runs diverged: elapsed %v/%v switches %d/%d steals %d/%d",
			m1.Elapsed(), m2.Elapsed(), m1.Switches(), m2.Switches(), m1.steals, m2.steals)
	}
	if l1.Contended != l2.Contended || l1.WaitHist.Sum() != l2.WaitHist.Sum() {
		t.Fatalf("identical runs diverged: contended %d/%d wait sums %d/%d",
			l1.Contended, l2.Contended, l1.WaitHist.Sum(), l2.WaitHist.Sum())
	}
}

// TestSMPWorkStealing pins the per-CPU queue layout: under Solaris'
// per-CPU dispatch queues an idle CPU steals from the longest queue and
// pays the personality's steal cost.
func TestSMPWorkStealing(t *testing.T) {
	p := osprofile.Solaris24()
	if !p.Kernel.PerCPUQueues {
		t.Fatal("Solaris personality lost its per-CPU queues")
	}
	m := MustMachine(p, 2)
	// Homes alternate by spawn order: t1, t3 land on CPU 0, t2 on CPU 1.
	// CPU 1 finishes its short thread first and steals t3 from CPU 0.
	m.SpawnThread("long-a", []Op{{Kind: OpThink, D: 100 * sim.Microsecond}}, 1)
	m.SpawnThread("short", []Op{{Kind: OpThink, D: 1 * sim.Microsecond}}, 1)
	m.SpawnThread("long-b", []Op{{Kind: OpThink, D: 100 * sim.Microsecond}}, 1)
	m.Run()
	if m.steals == 0 {
		t.Fatal("idle CPU never stole from the loaded CPU's queue")
	}
	// A global-queue personality on the same workload steals nothing.
	g := MustMachine(osprofile.Linux128(), 2)
	g.SpawnThread("long-a", []Op{{Kind: OpThink, D: 100 * sim.Microsecond}}, 1)
	g.SpawnThread("short", []Op{{Kind: OpThink, D: 1 * sim.Microsecond}}, 1)
	g.SpawnThread("long-b", []Op{{Kind: OpThink, D: 100 * sim.Microsecond}}, 1)
	g.Run()
	if g.steals != 0 {
		t.Fatalf("global-queue machine reported %d steals", g.steals)
	}
}

// TestSMPDeadlockPanics pins the failure mode: a thread re-acquiring a
// sleep lock it holds blocks forever, and Run reports it as a
// *sim.DeadlockError instead of hanging or finishing silently.
func TestSMPDeadlockPanics(t *testing.T) {
	m := MustMachine(osprofile.Linux128(), 2)
	l := m.NewLock(SleepLock)
	m.SpawnThread("self-deadlock", []Op{
		{Kind: OpLock, L: l},
		{Kind: OpLock, L: l},
		{Kind: OpUnlock, L: l},
	}, 1)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("deadlocked run finished without panicking")
		}
		var derr *sim.DeadlockError
		err, ok := r.(error)
		if !ok || !errors.As(err, &derr) {
			t.Fatalf("panic value %v (%T), want *sim.DeadlockError", r, r)
		}
	}()
	m.Run()
}

// TestSMPRCU pins the read-mostly path: a writer synchronizing against
// an in-flight reader waits out the grace period on-CPU (the wait lands
// in the spin ledger), and the ledgers stay exact.
func TestSMPRCU(t *testing.T) {
	p := osprofile.FreeBSD205()
	m := MustMachine(p, 2)
	r := m.NewRCU()
	m.SpawnThread("reader", []Op{{Kind: OpRCURead, R: r, D: 100 * sim.Microsecond}}, 1)
	m.SpawnThread("writer", []Op{
		{Kind: OpThink, D: 1 * sim.Microsecond},
		{Kind: OpRCUSync, R: r},
	}, 1)
	elapsed := m.Run()
	if r.Readers != 1 || r.Syncs != 1 {
		t.Fatalf("readers/syncs %d/%d, want 1/1", r.Readers, r.Syncs)
	}
	// The writer's CPU (1: homes alternate) busy-waited for the reader.
	_, _, spin := m.Ledger(1)
	if spin <= 0 {
		t.Fatal("writer synchronized against an in-flight reader without a grace-period wait")
	}
	for c := 0; c < 2; c++ {
		busy, idle, spin := m.Ledger(c)
		if busy+idle+spin != elapsed {
			t.Fatalf("cpu %d ledger %v+%v+%v != elapsed %v", c, busy, idle, spin, elapsed)
		}
	}
}

// TestSMPObserveTracks pins the obs contract on a multiprocessor: one
// kernel track per CPU plus one track per thread, spans only when
// observing, spans that nest properly on every track (so no track holds
// overlapping spans from two CPUs), and observation never perturbs
// timing.
func TestSMPObserveTracks(t *testing.T) {
	run := func(observe bool) (*Machine, *obs.Recorder) {
		m := MustMachine(osprofile.Linux128(), 2)
		var rec *obs.Recorder
		if observe {
			rec = obs.NewRecorder(nil)
			m.Observe(rec)
		}
		l := m.NewLock(SpinLock)
		for i := 0; i < 2; i++ {
			m.SpawnThread("w", lockWorkerOps(l, 5*sim.Microsecond, 20*sim.Microsecond), 10)
		}
		m.Run()
		return m, rec
	}
	plain, _ := run(false)
	observed, rec := run(true)
	if plain.Elapsed() != observed.Elapsed() || plain.Switches() != observed.Switches() {
		t.Fatalf("observation perturbed the run: %v/%d vs %v/%d",
			plain.Elapsed(), plain.Switches(), observed.Elapsed(), observed.Switches())
	}
	want := []string{"main", "kernel cpu0", "kernel cpu1", "pid 1 w", "pid 2 w"}
	if tracks := rec.Tracks(); !slices.Equal(tracks, want) {
		t.Fatalf("tracks = %v, want %v", tracks, want)
	}
	begins, ends, spins := 0, 0, 0
	open := map[obs.TrackID][]string{}
	last := map[obs.TrackID]sim.Time{}
	for _, e := range rec.Events() {
		if e.When < last[e.Track] {
			t.Fatalf("track %s goes back in time at %+v", want[e.Track], e)
		}
		last[e.Track] = e.When
		switch e.Kind {
		case obs.EvBegin:
			begins++
			if e.Name == "spin" {
				spins++
			}
			open[e.Track] = append(open[e.Track], e.Name)
		case obs.EvEnd:
			ends++
			stack := open[e.Track]
			if len(stack) == 0 || stack[len(stack)-1] != e.Name {
				t.Fatalf("track %s: %q ends while %v are open — spans overlap", want[e.Track], e.Name, stack)
			}
			open[e.Track] = stack[:len(stack)-1]
		}
	}
	if begins == 0 || begins != ends {
		t.Fatalf("unbalanced spans: %d begins, %d ends", begins, ends)
	}
	if spins == 0 {
		t.Fatal("contended spinlock run recorded no spin spans")
	}
	reg := obs.NewRegistry()
	observed.FoldMetrics(reg, "kernel.")
	if v, ok := reg.Snapshot().Get("kernel.context_switches"); !ok || v != float64(observed.Switches()) {
		t.Errorf("folded switches = %v %v, want %d", v, ok, observed.Switches())
	}
}

// oneCPUFingerprint runs a program mix at NCPU=1 under every
// personality and renders the full accounting: elapsed time, switch
// count and the six-phase ledger, one line per personality.
func oneCPUFingerprint(spawn func(m *Machine)) string {
	var b strings.Builder
	for _, p := range osprofile.All() {
		m := MustMachine(p, 1)
		spawn(m)
		elapsed := m.Run()
		fmt.Fprintf(&b, "%s: %v %d %v\n", p, elapsed, m.Switches(), m.PhaseBreakdown())
	}
	return b.String()
}

// checkFingerprint compares a fingerprint's SHA-256 with the digest
// recorded from the goroutine-based uniprocessor machine while both
// engines existed and a differential test held them equal event for
// event; the machine at NCPU=1 must keep reproducing that accounting.
func checkFingerprint(t *testing.T, got, want string) {
	t.Helper()
	sum := sha256.Sum256([]byte(got))
	if hex.EncodeToString(sum[:]) != want {
		t.Errorf("accounting moved from the uniprocessor's (sha256 %x, want %s):\n%s", sum, want, got)
	}
}

func TestSMPAtOneCPUMatchesUniprocessorGetpid(t *testing.T) {
	checkFingerprint(t, oneCPUFingerprint(func(m *Machine) {
		m.SpawnThread("getpid-loop", []Op{{Kind: OpSyscall}}, 10_000)
	}), "5e13591e54b3c48c2f3891982fb275cf8b6834d8e67e52b577b30b2662a570ba")
}

func TestSMPAtOneCPUMatchesUniprocessorYieldRing(t *testing.T) {
	// 40 processes exercise the Solaris dispatch table past its 32
	// entries, so LRU miss charging is covered too; 5 processes cover
	// the small-ring shape of Figure 1.
	for _, shape := range []struct {
		nproc, laps int
		want        string
	}{
		{5, 40, "1e7734ad51972a062db4ca399672a2df86d9c4302a82a80879759ed4c4063100"},
		{40, 5, "0beed3baa9078427a86da18448ddcc58edce473e06249aa8c24a604eb9790999"},
	} {
		checkFingerprint(t, oneCPUFingerprint(func(m *Machine) {
			for i := 0; i < shape.nproc; i++ {
				m.SpawnThread("yielder", []Op{{Kind: OpYield}}, shape.laps)
			}
		}), shape.want)
	}
}

// TestSMPAtOneCPUMatchesUniprocessorMixed runs a compute + syscall +
// yield mix, so the three charge classes land in their columns.
func TestSMPAtOneCPUMatchesUniprocessorMixed(t *testing.T) {
	const laps, think = 200, 7 * sim.Microsecond
	checkFingerprint(t, oneCPUFingerprint(func(m *Machine) {
		for i := 0; i < 3; i++ {
			m.SpawnThread("mixed", []Op{{Kind: OpThink, D: think}, {Kind: OpSyscall}, {Kind: OpYield}}, laps)
		}
	}), "26295d8e7486e0d7462e0271694214cd42fa9ad80ea0989e1bc6527692e250e6")
}
