package cli

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
)

// scale implements `pentiumbench scale`: sweep the NFS server model's
// client population — decades from 10 up to -clients — and print each
// personality's served throughput, streaming latency percentiles and
// overload counters (retransmitted, queue-dropped and shed requests).
// -faults injects a fault plan into every point: lossy clients
// retransmit and back off, so the curves degrade instead of the run
// crashing. Every point derives from the master seed, so the whole
// report is byte-identical run to run.
func (a *App) scale(cfg core.Config, clients, nfsd int, plan *fault.Plan) int {
	if clients <= 0 {
		clients = core.ScaleClientCounts[len(core.ScaleClientCounts)-1]
	}
	if nfsd <= 0 {
		nfsd = core.ScaleNfsd
	}
	fmt.Fprintf(a.Stdout, "NFS server scale-out: %d nfsd slots, open-loop 1 op/s per client\n", nfsd)
	if plan != nil {
		name := plan.Name
		if name == "" {
			name = "unnamed"
		}
		fmt.Fprintf(a.Stdout, "fault plan %q injected into every point\n", name)
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
	return 0
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
