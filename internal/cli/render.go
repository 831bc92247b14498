package cli

// The views' renderers: each writes one observation in one format, for
// whichever surface offers that format (see views).

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/report"
)

// writeJSON writes v as two-space-indented JSON and a newline.
func writeJSON(w io.Writer, v any) error {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(body, '\n'))
	return err
}

// renderChrome writes the probes' span streams as Chrome trace-event
// JSON, for Perfetto or chrome://tracing.
func renderChrome(w io.Writer, d *viewData) error {
	return obs.WriteChrome(w, d.suite.Processes)
}

// renderTraceText writes the per-run trace summaries: one line per run
// (and one for its per-request exemplar trace, when traced), then its
// tracks ranked by cumulative virtual time from the run's profile, which
// it folds itself (the trace view's projection is unfolded). -top keeps
// only the heaviest tracks; ring-buffer drops are surfaced so a
// truncated capture is never mistaken for a complete one.
func renderTraceText(w io.Writer, d *viewData) error {
	counts := func(label string, p *obs.Process) {
		spans := 0
		for _, e := range p.Events {
			if e.Kind == obs.EvBegin {
				spans++
			}
		}
		fmt.Fprintf(w, "  %-24s %d tracks, %d events (%d spans)",
			label, len(p.Tracks), len(p.Events), spans)
	}
	for oi, o := range d.suite.Observations {
		if oi > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%s — %s:\n", o.ID, o.Title)
		o.Fold()
		for _, run := range o.Runs {
			counts(run.Label, &run.Process)
			fmt.Fprintf(w, ", total %.2f %s", run.Total, run.Unit)
			if run.Process.Dropped > 0 {
				fmt.Fprintf(w, "  [%d events ring-dropped]", run.Process.Dropped)
			}
			fmt.Fprintln(w)
			if reqs := run.Requests(); reqs != nil {
				counts(run.Label+" requests", reqs)
				fmt.Fprintln(w)
			}
			tracks := run.Profile.TrackTotals()
			sort.SliceStable(tracks, func(i, j int) bool {
				if tracks[i].TotalNs != tracks[j].TotalNs {
					return tracks[i].TotalNs > tracks[j].TotalNs
				}
				return tracks[i].Track < tracks[j].Track
			})
			shown := tracks
			if d.top > 0 && len(shown) > d.top {
				shown = shown[:d.top]
			}
			for _, tt := range shown {
				fmt.Fprintf(w, "    %-22s %12d ns over %d spans",
					tt.Track, tt.TotalNs, tt.Spans)
				if tt.Truncated > 0 {
					fmt.Fprintf(w, "  [truncated: %d incomplete]", tt.Truncated)
				}
				fmt.Fprintln(w)
			}
			if len(shown) < len(tracks) {
				fmt.Fprintf(w, "    (%d more tracks)\n", len(tracks)-len(shown))
			}
		}
	}
	return nil
}

// renderMetricsTable writes per-phase cycle-attribution tables: where
// the modelled time of each run went, one column per phase. The columns
// sum to the total, by construction of the phase ledgers.
func renderMetricsTable(w io.Writer, d *viewData) error {
	for oi, o := range d.suite.Observations {
		if oi > 0 {
			fmt.Fprintln(w)
		}
		if len(o.Runs) == 0 {
			continue
		}
		fmt.Fprintf(w, "%s — %s: per-phase attribution (%s)\n", o.ID, o.Title, o.Runs[0].Unit)
		head := o.Runs[0].Rows
		fmt.Fprintf(w, "  %-24s", "system")
		for _, r := range head {
			fmt.Fprintf(w, " %11s", r.Name)
		}
		fmt.Fprintf(w, " %13s\n", "total")
		for _, run := range o.Runs {
			// Look rows up by name so every run prints in header order.
			vals := make(map[string]float64, len(run.Rows))
			for _, r := range run.Rows {
				vals[r.Name] = r.Value
			}
			fmt.Fprintf(w, "  %-24s", run.Label)
			for _, h := range head {
				fmt.Fprintf(w, " %11.2f", vals[h.Name])
			}
			fmt.Fprintf(w, " %13.2f\n", run.Total)
		}
		if counters := faultCounters(o); len(counters) > 0 {
			fmt.Fprintln(w, "  injected faults (summed across systems):")
			for _, c := range counters {
				fmt.Fprintf(w, "    %-32s %14.0f\n", c.Name, c.Value)
			}
		}
	}
	// Capture-fidelity footer: a non-zero trace-drop count means the
	// span recorder's ring wrapped and the tables above were built from
	// an incomplete trace; the exemplar line reports reservoir evictions
	// (expected whenever more than K requests land in a window).
	if n, ok := d.suite.Metrics.Get("runner.obs_dropped"); ok {
		fmt.Fprintf(w, "\nrecorder: %.0f trace events dropped", n)
		if n == 0 {
			fmt.Fprint(w, " (capture complete)")
		}
		fmt.Fprintln(w)
	}
	if n, ok := d.suite.Metrics.Get("runner.exemplars_dropped"); ok {
		fmt.Fprintf(w, "exemplars: %.0f candidates evicted from the reservoirs", n)
		if n == 0 {
			fmt.Fprint(w, " (every candidate kept)")
		}
		fmt.Fprintln(w)
	}
	return nil
}

// renderPrometheus writes the probes' metric snapshots in the Prometheus
// text exposition format, runner self-metrics excluded (they carry wall
// clock and would roll the content hash on every compute), then the NFS
// scale probes' full latency histogram as a real Prometheus histogram
// family: cumulative le buckets on the stats.Histogram boundaries, a
// +Inf bucket, _sum and _count, with the HELP/TYPE header once before
// the first sample.
func renderPrometheus(w io.Writer, d *viewData) error {
	for _, o := range d.suite.Observations {
		for _, run := range o.Runs {
			snap := run.Metrics.ExcludePrefix("runner.")
			for _, c := range snap.Counters {
				fmt.Fprintf(w, "%s{experiment=%q,system=%q} %v\n",
					promName(c.Name), o.ID, run.Label, c.Value)
			}
			for _, dist := range snap.Dists {
				n := promName(dist.Name)
				fmt.Fprintf(w, "%s_count{experiment=%q,system=%q} %d\n", n, o.ID, run.Label, dist.Count)
				fmt.Fprintf(w, "%s_sum{experiment=%q,system=%q} %v\n", n, o.ID, run.Label, dist.Sum)
			}
		}
	}
	const family = "pentiumbench_nfs_latency_ns"
	wroteHead := false
	for _, o := range d.suite.Observations {
		for _, run := range o.Runs {
			hist := run.LatencyHist
			if hist == nil || hist.N() == 0 {
				continue
			}
			if !wroteHead {
				fmt.Fprintf(w, "# HELP %s NFS request latency in virtual nanoseconds.\n", family)
				fmt.Fprintf(w, "# TYPE %s histogram\n", family)
				wroteHead = true
			}
			cum := uint64(0)
			for _, bk := range hist.Buckets() {
				cum += bk.Count
				fmt.Fprintf(w, "%s_bucket{experiment=%q,system=%q,le=\"%d\"} %d\n",
					family, o.ID, run.Label, bk.Upper, cum)
			}
			fmt.Fprintf(w, "%s_bucket{experiment=%q,system=%q,le=\"+Inf\"} %d\n",
				family, o.ID, run.Label, hist.N())
			fmt.Fprintf(w, "%s_sum{experiment=%q,system=%q} %d\n", family, o.ID, run.Label, hist.Sum())
			fmt.Fprintf(w, "%s_count{experiment=%q,system=%q} %d\n", family, o.ID, run.Label, hist.N())
		}
	}
	return nil
}

// promName maps a dotted metric name onto the Prometheus grammar
// ([a-zA-Z_:][a-zA-Z0-9_:]*), prefixed to namespace the exposition.
func promName(name string) string {
	var sb strings.Builder
	sb.WriteString("pentiumbench_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// renderSeriesCSV writes the long format: one row per (experiment,
// system, series, window), t_ns the window's virtual start time.
func renderSeriesCSV(w io.Writer, d *viewData) error {
	fmt.Fprintln(w, "experiment,system,series,t_ns,value")
	for _, o := range d.suite.Observations {
		for _, run := range o.Runs {
			if run.Series == nil {
				continue
			}
			for _, s := range run.Series.Flatten() {
				for i, v := range s.Values {
					fmt.Fprintf(w, "%s,%s,%s,%d,%d\n",
						o.ID, run.Label, s.Name, int64(i)*run.Series.WidthNs, v)
				}
			}
		}
	}
	return nil
}

// renderSeriesJSON writes one object per sampled run, with the full
// snapshot (counters, gauges, windowed histogram summaries).
func renderSeriesJSON(w io.Writer, d *viewData) error {
	type runSeries struct {
		Experiment string          `json:"experiment"`
		System     string          `json:"system"`
		Series     *obs.TimeSeries `json:"series"`
	}
	out := []runSeries{}
	for _, o := range d.suite.Observations {
		for _, run := range o.Runs {
			if run.Series != nil {
				out = append(out, runSeries{o.ID, run.Label, run.Series})
			}
		}
	}
	return writeJSON(w, out)
}

// renderTimelines writes one small-multiple timeline figure per
// experiment into -out, naming each file it wrote.
func renderTimelines(w io.Writer, d *viewData) error {
	if err := d.app.MkdirAll(d.outDir, 0o755); err != nil {
		return err
	}
	for _, o := range d.suite.Observations {
		var runs []report.TimelineRun
		for _, run := range o.Runs {
			if run.Series == nil {
				continue
			}
			flat := run.Series.Flatten()
			runs = append(runs, report.TimelineRun{
				Label:    run.Label,
				WidthNs:  run.Series.WidthNs,
				Series:   flat,
				Overload: overloadWindows(flat),
			})
		}
		path := fmt.Sprintf("%s/timeline-%s.svg", d.outDir, o.ID)
		err := d.app.writeFile(path, func(f io.Writer) error {
			report.Timeline(f, o.ID, o.Title, runs)
			return nil
		})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "wrote", path)
	}
	return nil
}

// overloadWindows marks the windows where the NFS server was saturated:
// queue drops (the queue was at capacity when a request landed) or
// sheds. Runs without those series — the kernel probes — mark nothing.
func overloadWindows(flat []obs.FlatSeries) []bool {
	var out []bool
	for _, s := range flat {
		if s.Name != "nfs.queue_drops" && s.Name != "nfs.shed" {
			continue
		}
		if len(s.Values) > len(out) {
			grown := make([]bool, len(s.Values))
			copy(grown, out)
			out = grown
		}
		for i, v := range s.Values {
			if v > 0 {
				out[i] = true
			}
		}
	}
	return out
}

// renderExemplars writes the scale probes' tail-biased request
// lifecycles: per latency window, the K exemplar requests with every
// phase of their lifetime (wire, RTO, queue, CPU, disk wait, disk) — the
// raw material behind the audit's per-request checks.
func renderExemplars(w io.Writer, d *viewData) error {
	type runExemplars struct {
		Experiment string               `json:"experiment"`
		System     string               `json:"system"`
		ExemplarK  int                  `json:"exemplar_k"`
		WindowNs   int64                `json:"window_ns"`
		Dropped    int64                `json:"dropped"`
		Windows    []obs.ExemplarWindow `json:"windows"`
	}
	out := []runExemplars{}
	for _, o := range d.suite.Observations {
		for _, run := range o.Runs {
			if run.LatencyHist == nil {
				continue
			}
			out = append(out, runExemplars{
				Experiment: o.ID, System: run.Label,
				ExemplarK: d.opts.ExemplarK, WindowNs: int64(d.opts.Window),
				Dropped: run.ExemplarDrops, Windows: run.Exemplars,
			})
		}
	}
	return writeJSON(w, out)
}

// renderAuditText writes the human-readable verdict: one summary row
// per audited run, then any violations ranked worst-first with the
// concrete identity each one broke.
func renderAuditText(w io.Writer, d *viewData) error {
	systems, failed := 0, 0
	for oi, ao := range d.audits {
		if oi > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%s — %s: queueing-law audit\n", ao.ID, ao.Title)
		// The Report's Clients/Nfsd fields carry cpus/threads for the SMP
		// audit (one field shape for every consumer); label accordingly.
		c1, c2 := "clients", "nfsd"
		if ao.ID == "L1" {
			c1, c2 = "cpus", "threads"
		}
		fmt.Fprintf(w, "  %-24s %9s %7s %8s %7s  %s\n",
			"system", c1, c2, "checks", "failed", "verdict")
		for _, rep := range ao.Reports {
			systems++
			verdict := "ok"
			if !rep.OK() {
				verdict = "FAIL"
				failed++
			}
			fmt.Fprintf(w, "  %-24s %9d %7d %8d %7d  %s\n",
				rep.System, rep.Clients, rep.Nfsd, rep.Evaluated, rep.Failed, verdict)
		}
		for _, rep := range ao.Reports {
			if rep.OK() {
				continue
			}
			fmt.Fprintf(w, "  %s violations (worst first):\n", rep.System)
			for _, v := range rep.Violations {
				where := "run"
				if v.Scope == "window" {
					where = fmt.Sprintf("window %d", v.Window)
				}
				fmt.Fprintf(w, "    [%s] %s: %s (|err| %g, rel %.3g)\n",
					v.Invariant, where, v.Detail, v.AbsErr, v.RelErr)
			}
		}
	}
	fmt.Fprintln(w)
	if failed == 0 {
		fmt.Fprintf(w, "all invariants hold across %d audited runs.\n", systems)
		return nil
	}
	fmt.Fprintf(w, "%d of %d audited runs violated at least one invariant.\n", failed, systems)
	return nil
}

// renderVerdicts writes each audited experiment's verdict as one JSON
// object: id, title, overall ok, and the reports with violations ranked
// worst-first.
func renderVerdicts(w io.Writer, d *viewData) error {
	for _, ao := range d.audits {
		err := writeJSON(w, map[string]any{
			"id": ao.ID, "title": ao.Title, "ok": ao.OK(), "reports": ao.Reports,
		})
		if err != nil {
			return err
		}
	}
	return nil
}
