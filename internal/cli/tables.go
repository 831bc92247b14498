package cli

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/sim"
)

// A modelTable prints the deterministic sweep behind the exhibits in
// ids without the twenty-run noise protocol; faults marks a sweep that
// takes a -faults plan.
type modelTable struct {
	ids    []string
	faults bool
	print  func(a *App, cfg core.Config, o cmdOpts)
}

// modelTables lists every table in presentation order.
var modelTables = []modelTable{
	{[]string{"S1", "S2"}, true, (*App).scale},
	{[]string{"L1", "L2"}, false, (*App).locks},
	{[]string{"I1"}, true, (*App).ipc},
}

// tables is `run <ids|all> -format=table`: each table behind the
// selected exhibits prints once, in presentation order; "all" selects
// every table.
func (a *App) tables(cfg core.Config, o cmdOpts, ids []string) int {
	var tabled []string
	for _, t := range modelTables {
		tabled = append(tabled, t.ids...)
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = tabled
	}
	refuse := func(format string, args ...any) int {
		fmt.Fprintf(a.Stderr, "pentiumbench: "+format+"\n", args...)
		return 2
	}
	if cfg.Memo != nil {
		return refuse("-memo does not apply to run -format=table")
	}
	for _, id := range ids {
		if !slices.Contains(tabled, id) {
			return refuse("%s has no model table (tables: %v)", id, tabled)
		}
	}
	var picked []modelTable
	for _, t := range modelTables {
		if slices.ContainsFunc(t.ids, func(id string) bool { return slices.Contains(ids, id) }) {
			if o.faults != nil && !t.faults {
				return refuse("-faults does not apply to the %v table (only the S1/S2 and I1 tables take it)", t.ids)
			}
			picked = append(picked, t)
		}
	}
	for _, t := range picked {
		t.print(a, cfg, o)
	}
	return 0
}

// scale prints the NFS server model's client-population sweep —
// decades from 10 up to -clients — with each personality's served
// throughput, streaming latency percentiles and overload counters
// (retransmitted, queue-dropped and shed requests). -faults injects a
// fault plan into every point: lossy clients retransmit and back off,
// so the curves degrade instead of the run crashing. Every point
// derives from the master seed, so the whole report is byte-identical
// run to run.
func (a *App) scale(cfg core.Config, o cmdOpts) {
	clients, nfsd, plan := o.clients, o.nfsd, o.faults
	if clients <= 0 {
		clients = core.ScaleClientCounts[len(core.ScaleClientCounts)-1]
	}
	if nfsd <= 0 {
		nfsd = core.ScaleNfsd
	}
	fmt.Fprintf(a.Stdout, "NFS server scale-out: %d nfsd slots, open-loop 1 op/s per client\n", nfsd)
	if plan != nil {
		fmt.Fprintf(a.Stdout, "fault plan %q injected into every point\n", cmp.Or(plan.Name, "unnamed"))
	}
	for _, p := range cfg.Profiles {
		fmt.Fprintf(a.Stdout, "\n%s:\n", p)
		fmt.Fprintf(a.Stdout, "  %9s %9s %10s %10s %10s %6s %9s %8s %7s\n",
			"clients", "ops/s", "p50 ms", "p99 ms", "p999 ms", "util", "retrans", "drops", "shed")
		for _, n := range scaleCounts(clients) {
			r := core.ScaleRun(cfg, p, n, nfsd, plan)
			fmt.Fprintf(a.Stdout, "  %9d %9.2f %10.2f %10.2f %10.2f %5.1f%% %9d %8d %7d\n",
				n, r.Throughput(),
				r.Quantile(0.5).Milliseconds(),
				r.Quantile(0.99).Milliseconds(),
				r.Quantile(0.999).Milliseconds(),
				100*r.Utilization(),
				r.Retransmits, r.QueueDrops, r.Shed)
		}
	}
}

// scaleCounts is the decade sweep 10 … max, with max itself appended
// when it is not already a decade point.
func scaleCounts(max int) []int {
	var out []int
	for n := 10; n <= max; n *= 10 {
		out = append(out, n)
	}
	if len(out) == 0 || out[len(out)-1] != max {
		out = append(out, max)
	}
	return out
}

// locks prints the lock-contention sweep: per personality and lock kind,
// throughput and wait percentiles over the CPU count, with the spin and
// idle shares of the machine's time so the cost of each strategy is
// visible, not just its bottom line.
func (a *App) locks(cfg core.Config, _ cmdOpts) {
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
}

// ipc prints the IPC bandwidth sweep: per personality and transport,
// MB/s over the message sizes the I1 exhibit plots. A -faults plan
// reaches the socket transport only.
func (a *App) ipc(cfg core.Config, o cmdOpts) {
	fmt.Fprintf(a.Stdout, "IPC bandwidth (MB/s), 1 MB transfers (model behind exhibit I1)\n")
	if o.faults != nil {
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
				fmt.Fprintf(a.Stdout, "  %8.2f", core.IPCPoint(cfg, p, tr, msg, o.faults))
			}
			fmt.Fprintln(a.Stdout)
		}
		fmt.Fprintln(a.Stdout)
	}
}
