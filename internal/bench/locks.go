package bench

import (
	"repro/internal/kernel"
	"repro/internal/osprofile"
	"repro/internal/sim"
	"repro/internal/stats"
)

// The lock-contention microbenchmark (exhibits L1/L2): nthreads threads
// on ncpu CPUs, each iterating think → acquire → critical section →
// release. Sweeping CPU count shows how each personality's lock
// acquisition scales; sweeping the critical-section length shows the
// spin-vs-sleep crossover — spinning wins while sections are shorter
// than a block/wakeup round trip and loses once backoff overshoot and
// poll unfairness dominate.

// LockWorkload parameterizes one lock-contention run.
type LockWorkload struct {
	// Kind selects spinning or sleeping.
	Kind kernel.LockKind
	// NCPU and NThreads size the machine (NThreads defaults to NCPU).
	NCPU, NThreads int
	// Think is the uncontended compute between acquisitions; Crit the
	// critical-section length.
	Think, Crit sim.Duration
	// Iters is the per-thread iteration count.
	Iters int
}

// LockResult carries one run's outcome.
type LockResult struct {
	// Elapsed is the machine's total virtual run time.
	Elapsed sim.Duration
	// Ops is the total number of completed critical sections.
	Ops uint64
	// WaitHist observed the wait time of every contended acquisition.
	WaitHist *stats.Histogram
	// Machine and Lock expose the full state for audits and exhibits.
	Machine *kernel.Machine
	Lock    *kernel.Lock
}

// Throughput returns completed critical sections per second.
func (r LockResult) Throughput() float64 {
	s := r.Elapsed.Seconds()
	if s <= 0 {
		return 0
	}
	return float64(r.Ops) / s
}

// LockContention runs the workload on a fresh machine.
func LockContention(p *osprofile.Profile, w LockWorkload) LockResult {
	if w.NThreads == 0 {
		w.NThreads = w.NCPU
	}
	m := kernel.MustMachine(p, w.NCPU)
	l := m.NewLock(w.Kind)
	for i := 0; i < w.NThreads; i++ {
		// A small prime-stride stagger on each thread's think time keeps
		// identical workers from phase-locking: with every arrival
		// synchronous, spin wait times alias against the backoff ladder
		// and the sweep curves turn erratic. Real workloads never align
		// this perfectly; 137 ns per thread is the deterministic stand-in.
		ops := []kernel.Op{
			{Kind: kernel.OpThink, D: w.Think + sim.Duration(i)*137},
			{Kind: kernel.OpLock, L: l},
			{Kind: kernel.OpThink, D: w.Crit},
			{Kind: kernel.OpUnlock, L: l},
		}
		m.SpawnThread("worker", ops, w.Iters)
	}
	elapsed := m.Run()
	return LockResult{
		Elapsed:  elapsed,
		Ops:      uint64(w.NThreads) * uint64(w.Iters),
		WaitHist: &l.WaitHist,
		Machine:  m,
		Lock:     l,
	}
}
