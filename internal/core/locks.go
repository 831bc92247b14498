package core

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/kernel"
	"repro/internal/osprofile"
	"repro/internal/sim"
	"repro/internal/stats"
)

// The L exhibits run the SMP lock-contention microbenchmark (DESIGN.md
// §16) beyond the paper's uniprocessor world, after the synchronization-
// mechanisms survey in PAPERS.md: the same worker loop under each
// personality's spinlock and sleep lock, swept over CPU count (L1) and
// critical-section length (L2).

// LockNCPUs is the L1 CPU-count sweep.
var LockNCPUs = []int{1, 2, 4, 8, 16}

// lockCritsUS is the L2 critical-section sweep in µs (log-spaced).
var lockCritsUS = []int{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}

const (
	// LockThink is the uncontended compute between acquisitions.
	LockThink = 5 * sim.Microsecond
	// LockCrit is L1's fixed critical-section length.
	LockCrit = 20 * sim.Microsecond
	// lockIters is the per-thread iteration count.
	lockIters = 400
	// lockSweepNCPU is L2's fixed machine size (and the audit's).
	lockSweepNCPU = 8
)

// LockKinds orders the two contention strategies in exhibit series.
var LockKinds = []kernel.LockKind{kernel.SpinLock, kernel.SleepLock}

// LockPoint runs one lock-contention point with the exhibits'
// construction — the audited run is the exhibited run. Exported for the
// CLI's L1/L2 table (`run L1 -format=table`).
func LockPoint(p *osprofile.Profile, kind kernel.LockKind, ncpu int, crit sim.Duration) bench.LockResult {
	return bench.LockContention(p, bench.LockWorkload{
		Kind: kind, NCPU: ncpu,
		Think: LockThink, Crit: crit, Iters: lockIters,
	})
}

func init() {
	register(&Experiment{
		ID:    "L1",
		Title: "Lock-Contention Throughput vs CPU Count",
		Kind:  Figure,
		Paper: "SMP extension of §5 (synchronization survey, PAPERS.md)",
		YUnit: "ops/s", XLabel: "cpus",
		Direction: stats.HigherIsBetter,
		Notes: []string{
			"One worker per CPU iterates think → lock → 20 µs critical section → unlock; the lock serializes, so throughput saturates near 1/critical-section and the interesting signal is how much each personality's acquisition machinery wastes getting there.",
			"Spinlocks waste the losing CPUs' cycles in the backoff ladder (visible in the spin ledger, which the audit checks against elapsed exactly); sleep locks pay block/wakeup plus a dispatch per handoff.",
			"Per-CPU busy + idle + spin sums equal elapsed to the nanosecond on every run — `pentiumbench audit -ids L1` re-verifies.",
		},
		Series: func(cfg Config) []Series {
			return perProfile(cfg, len(LockKinds), func(p *osprofile.Profile, k int) Series {
				kind := LockKinds[k]
				label := fmt.Sprintf("%s %s", p, kind)
				return curve(cfg, "L1", label, label, floats(LockNCPUs), noiseFor(p, noiseCtx), func(i int) float64 {
					return LockPoint(p, kind, LockNCPUs[i], LockCrit).Throughput()
				})
			})
		},
	})

	register(&Experiment{
		ID:    "L2",
		Title: "Lock Wait-Time p99 vs Critical-Section Length",
		Kind:  Figure,
		Paper: "SMP extension of §5 (synchronization survey, PAPERS.md)",
		YUnit: "µs", XLabel: "critical section (µs)", LogX: true,
		Direction: stats.LowerIsBetter,
		Notes: []string{
			"Eight CPUs contend for one lock; the y-axis is the 99th-percentile wait of contended acquisitions, streamed from the lock's log-bucket histogram.",
			"The spin-vs-sleep crossover: short sections favour spinning (a sleep handoff costs a block, a wakeup, and a dispatch every time), long sections favour sleeping (the backoff ladder overshoots and unfair poll ordering starves whoever backed off furthest, while the sleep queue's FIFO handoff bounds waits at queue-depth × section).",
			"Each personality crosses at a different length — the ladder cap, wakeup cost, and dispatch cost are per-OS calibrations.",
		},
		Series: func(cfg Config) []Series {
			return perProfile(cfg, len(LockKinds), func(p *osprofile.Profile, k int) Series {
				kind := LockKinds[k]
				label := fmt.Sprintf("%s %s", p, kind)
				return curve(cfg, "L2", label, label, floats(lockCritsUS), noiseFor(p, noiseCtx), func(i int) float64 {
					r := LockPoint(p, kind, lockSweepNCPU, sim.Duration(lockCritsUS[i])*sim.Microsecond)
					return sim.Duration(r.WaitHist.Quantile(0.99)).Microseconds()
				})
			})
		},
	})
}
