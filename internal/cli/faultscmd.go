package cli

import (
	"cmp"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
)

// faults implements `pentiumbench faults <ids|all> -faults <file>`:
// run each observability probe twice — clean, then under the fault plan
// — and report per system where the injected faults sent the time, plus
// the injected-event counters. Both passes run on the worker pool, and
// every fault arrival derives from the sim RNG forked per (experiment,
// personality), so the whole report is byte-identical at every -j.
func (a *App) faults(cfg core.Config, runner *core.Runner, o cmdOpts, ids []string) int {
	plan := o.faults
	if plan == nil {
		fmt.Fprintln(a.Stderr, "pentiumbench: faults needs -faults <file> (see examples/lossy-nfs.json)")
		return 2
	}
	if !plan.Active() {
		fmt.Fprintln(a.Stderr, "pentiumbench: the fault plan is inert (every probability is zero)")
		return 2
	}
	if len(ids) == 0 {
		fmt.Fprintf(a.Stderr, "pentiumbench: faults needs experiment ids or 'all' (faultable: %v)\n",
			core.FaultableIDs())
		return 2
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = core.FaultableIDs()
	}
	opts := core.ObserveOpts{Procs: o.procs, Clients: o.clients, Nfsd: o.nfsd}
	clean, err := runner.Observe(cfg, ids, opts)
	var faulted *core.SuiteObservation
	if err == nil {
		opts.Faults = plan
		faulted, err = runner.Observe(cfg, ids, opts)
	}
	if err != nil {
		fmt.Fprintln(a.Stderr, "pentiumbench:", err)
		return 2
	}
	name := cmp.Or(plan.Name, "unnamed")
	for oi, co := range clean.Observations {
		fo := faulted.Observations[oi]
		if oi > 0 {
			fmt.Fprintln(a.Stdout)
		}
		unit := ""
		if len(co.Runs) > 0 {
			unit = co.Runs[0].Unit
		}
		fmt.Fprintf(a.Stdout, "%s — %s under plan %q (%s):\n", co.ID, co.Title, name, unit)
		fmt.Fprintf(a.Stdout, "  %-24s %14s %14s %9s\n", "system", "clean", "faulted", "delta")
		for ri, cr := range co.Runs {
			fr := fo.Runs[ri]
			fmt.Fprintf(a.Stdout, "  %-24s %14.2f %14.2f %9s\n",
				cr.Label, cr.Total, fr.Total, deltaPct(cr.Total, fr.Total))
		}
		counters := faultCounters(fo)
		if len(counters) == 0 {
			fmt.Fprintln(a.Stdout, "  (no faults fired for this probe)")
			continue
		}
		fmt.Fprintln(a.Stdout, "  injected (summed across systems):")
		for _, c := range counters {
			fmt.Fprintf(a.Stdout, "    %-32s %14.0f\n", c.Name, c.Value)
		}
	}
	return 0
}

// deltaPct formats the faulted-vs-clean slowdown of one run.
func deltaPct(clean, faulted float64) string {
	if clean == 0 {
		if faulted == 0 {
			return "+0.0%"
		}
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(faulted-clean)/clean)
}

// faultCounters sums the fault.* counters across an observation's runs,
// dropping zero-valued ones, sorted by name.
func faultCounters(o *core.Observation) []obs.CounterValue {
	sums := map[string]float64{}
	for _, run := range o.Runs {
		for _, c := range run.Metrics.Counters {
			if strings.HasPrefix(c.Name, "fault.") {
				sums[c.Name] += c.Value
			}
		}
	}
	var out []obs.CounterValue
	for name, v := range sums {
		if v != 0 {
			out = append(out, obs.CounterValue{Name: name, Value: v})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
