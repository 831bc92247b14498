package cli

// The locks and ipc commands: terminal front-ends for the SMP
// lock-contention model and the IPC transport family (DESIGN.md §16),
// printing the deterministic sweep tables behind the L1/L2 and I1
// exhibits without the twenty-run noise protocol.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
)

// locks prints the lock-contention sweep: per personality and lock kind,
// throughput and wait percentiles over the CPU count, with the spin and
// idle shares of the machine's time so the cost of each strategy is
// visible, not just its bottom line.
func (a *App) locks(cfg core.Config) int {
	fmt.Fprintf(a.Stdout, "Lock contention: one worker per CPU, think %v, critical section %v\n", core.LockThink, core.LockCrit)
	fmt.Fprintf(a.Stdout, "(model behind exhibits L1/L2; wait percentiles over contended acquisitions)\n\n")
	for _, p := range cfg.Profiles {
		for _, kind := range core.LockKinds {
			fmt.Fprintf(a.Stdout, "%s — %s lock\n", p, kind)
			fmt.Fprintf(a.Stdout, "  %5s  %12s  %10s  %10s  %8s  %8s  %9s\n",
				"cpus", "ops/s", "p50 wait", "p99 wait", "spin%", "idle%", "switches")
			for _, ncpu := range core.LockNCPUs {
				r := core.LockPoint(p, kind, ncpu, core.LockCrit)
				m := r.Machine
				var spin, idle, total sim.Duration
				for c := 0; c < m.NCPU(); c++ {
					b, i, s := m.Ledger(c)
					spin += s
					idle += i
					total += b + i + s
				}
				pct := func(d sim.Duration) float64 {
					if total == 0 {
						return 0
					}
					return 100 * float64(d) / float64(total)
				}
				p50 := sim.Duration(r.WaitHist.Quantile(0.5))
				p99 := sim.Duration(r.WaitHist.Quantile(0.99))
				fmt.Fprintf(a.Stdout, "  %5d  %12.1f  %10v  %10v  %7.1f%%  %7.1f%%  %9d\n",
					ncpu, r.Throughput(), p50, p99, pct(spin), pct(idle), m.Switches())
			}
			fmt.Fprintln(a.Stdout)
		}
	}
	return 0
}

// ipc prints the IPC bandwidth sweep: per personality and transport,
// MB/s over the message sizes the I1 exhibit plots. A -faults plan
// reaches the socket transport only.
func (a *App) ipc(cfg core.Config, plan *fault.Plan) int {
	fmt.Fprintf(a.Stdout, "IPC bandwidth (MB/s), 1 MB transfers (model behind exhibit I1)\n")
	if plan != nil {
		fmt.Fprintf(a.Stdout, "fault plan applies to the socket transport only\n")
	}
	fmt.Fprintln(a.Stdout)
	for _, p := range cfg.Profiles {
		fmt.Fprintf(a.Stdout, "%s\n", p)
		fmt.Fprintf(a.Stdout, "  %-8s", "bytes")
		for _, tr := range core.IPCTransports {
			fmt.Fprintf(a.Stdout, "  %8s", tr)
		}
		fmt.Fprintln(a.Stdout)
		for _, msg := range core.IPCMsgSizes {
			fmt.Fprintf(a.Stdout, "  %-8d", msg)
			for _, tr := range core.IPCTransports {
				fmt.Fprintf(a.Stdout, "  %8.2f", core.IPCPoint(cfg, p, tr, msg, plan))
			}
			fmt.Fprintln(a.Stdout)
		}
		fmt.Fprintln(a.Stdout)
	}
	return 0
}
