package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/memmodel"
	"repro/internal/nfsserver"
	"repro/internal/obs"
	"repro/internal/osprofile"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/stats"
)

// PhaseRow is one attribution row of a metrics table: a named phase and
// the time (or cycles) it consumed.
type PhaseRow struct {
	Name  string
	Value float64
}

// ObservedRun is one observed model run of an experiment probe: one OS
// personality (or the hardware curve), its cycle-attribution rows, the
// captured trace and the full metric snapshot.
type ObservedRun struct {
	// Label identifies the run (an OS personality, or the hardware).
	Label string
	// Unit is the unit of Rows and Total ("µs" or "cycles").
	Unit string
	// Rows decompose Total by phase; they sum to Total within float
	// re-association tolerance (exactly, for integer-duration ledgers).
	Rows []PhaseRow
	// Total is the run's total simulated time or cycles.
	Total float64
	// Process is the captured trace for Chrome export.
	Process obs.Process
	// Requests is the per-request exemplar trace (one "req <id>" track
	// per retained exemplar), present only when ObserveOpts.ExemplarK
	// enabled exemplar tracing. It is recorded apart from Process and
	// exported as a Chrome process of its own, so it never pushes model
	// events out of Process's bounded ring.
	Requests *obs.Process
	// Metrics is the run's full metric snapshot.
	Metrics obs.Snapshot
	// Profile is the run's span stream folded into weighted call stacks
	// (virtual nanoseconds; DESIGN.md §10). Folding happens inside the
	// probe task, so parallel suites profile in parallel too.
	Profile *profile.Profile
	// Series is the run's virtual-time time-series snapshot, present
	// only when ObserveOpts.Window enabled sampling and the probe has
	// sampled instrumentation (see SampledIDs).
	Series *obs.TimeSeries
	// Exemplars is the run's per-window sampled request lifecycles,
	// present only when ObserveOpts.ExemplarK enabled exemplar tracing
	// and the probe's model offers them (S1/S2); ExemplarDrops counts
	// offers the per-window reservoir bound rejected.
	Exemplars     []obs.ExemplarWindow
	ExemplarDrops int64
	// LatencyHist is the model's exact latency histogram when the probe
	// has one (S1/S2) — the source of Prometheus `le` bucket boundaries
	// and the attachment point for exemplar buckets.
	LatencyHist *stats.Histogram
}

// Observation is the observability product of one experiment probe.
type Observation struct {
	ID    string
	Title string
	Runs  []ObservedRun
}

// ObserveOpts tune the probes. The zero value selects defaults.
type ObserveOpts struct {
	// Procs is the ctx process count for the F1 probe (default 8).
	Procs int
	// FileBytes is the crtdel file size for the F12 probe (default 64 KB).
	FileBytes int64
	// PacketSize is the datagram size for the F13 probe (default 1024).
	PacketSize int
	// Clients is the client population for the S1/S2 scale probes
	// (default 1000 — the knee of the curves); Nfsd is the server's
	// worker-slot count (default 8).
	Clients int
	Nfsd    int
	// Faults, when non-nil and active, injects the plan's faults into
	// the probes that model faultable hardware (disk, network, buffer
	// cache): T5, T6, T7, F12 and F13. Each (experiment, personality)
	// run forks its own injector RNG from the seed, so results are
	// bit-identical at every worker count. Nil runs clean.
	Faults *fault.Plan
	// Window, when positive, attaches a virtual-time time-series
	// sampler of that window width to the probes in SampledIDs; each
	// sampled run's ObservedRun.Series carries the snapshot. Zero (the
	// default) samples nothing and the probes are byte-identical to
	// builds without the sampler.
	Window sim.Duration
	// ExemplarK, when positive, attaches a deterministic per-window
	// exemplar reservoir of that capacity to the probes whose models
	// offer request lifecycles (S1/S2): each run's
	// ObservedRun.Exemplars carries the tail-biased sample,
	// ObservedRun.Requests the per-request tracks, and Series (when
	// sampling is also on) attaches the exemplars to its snapshot.
	// Windows follow ObserveOpts.Window, defaulting to 100 ms when
	// sampling is off.
	// Zero (the default) traces nothing and the probes are
	// byte-identical to builds without the reservoir.
	ExemplarK int
}

func (o ObserveOpts) withDefaults() ObserveOpts {
	if o.Procs <= 0 {
		o.Procs = 8
	}
	if o.FileBytes <= 0 {
		o.FileBytes = 64 << 10
	}
	if o.PacketSize <= 0 {
		o.PacketSize = 1024
	}
	if o.Clients <= 0 {
		o.Clients = 1000
	}
	if o.Nfsd <= 0 {
		o.Nfsd = scaleNfsd
	}
	return o
}

// memRoutines maps the §6 figure IDs to their routines.
var memRoutines = map[string]memmodel.Routine{
	"F2": memmodel.CustomRead,
	"F3": memmodel.Memset,
	"F4": memmodel.NaiveWrite,
	"F5": memmodel.PrefetchWrite,
	"F6": memmodel.LibcMemcpy,
	"F7": memmodel.NaiveCopy,
	"F8": memmodel.PrefetchCopy,
}

// ObservableIDs returns the experiment IDs Observe has probes for, in
// presentation order.
func ObservableIDs() []string {
	ids := []string{"T2", "T4", "T5", "T6", "T7", "F1", "F12", "F13", "S1", "S2"}
	for id := range memRoutines {
		ids = append(ids, id)
	}
	// Same precomputed rank-key sort as All: ranks are distinct across
	// these IDs, so the order is deterministic despite the map walk.
	keys := make([]int64, len(ids))
	for i, id := range ids {
		keys[i] = int64(rank(id))<<32 | int64(i)
	}
	slices.Sort(keys)
	out := make([]string, len(ids))
	for j, k := range keys {
		out[j] = ids[k&(1<<32-1)]
	}
	return out
}

// SampledIDs returns the observable experiments whose probes carry
// time-series instrumentation: the kernel scheduler (F1), the benchmark
// disk (F12), and the NFS scale-out server (S1, S2). The other probes'
// models have no windowed series to report.
func SampledIDs() []string {
	return []string{"F1", "F12", "S1", "S2"}
}

// FaultableIDs returns the observable experiments whose probes consult
// the fault injectors: the ones modelling disk, network or buffer-cache
// hardware. The other probes run identically under any plan.
func FaultableIDs() []string {
	return []string{"T5", "T6", "T7", "F12", "F13", "S1", "S2"}
}

// rows extracts attribution rows from a snapshot: the counters carrying
// the given prefix and suffix, with both trimmed from the row name.
func rows(snap obs.Snapshot, prefix, suffix string) []PhaseRow {
	var out []PhaseRow
	for _, c := range snap.Counters {
		if strings.HasPrefix(c.Name, prefix) && strings.HasSuffix(c.Name, suffix) {
			name := strings.TrimSuffix(strings.TrimPrefix(c.Name, prefix), suffix)
			out = append(out, PhaseRow{Name: name, Value: c.Value})
		}
	}
	return out
}

// benchRun adapts a bench.Observation into an ObservedRun with µs rows
// drawn from the snapshot counters matching prefix+...+suffix.
func benchRun(label string, o bench.Observation, prefix, suffix string) ObservedRun {
	return ObservedRun{
		Label:   label,
		Unit:    "µs",
		Rows:    rows(o.Metrics, prefix, suffix),
		Total:   o.Total.Microseconds(),
		Process: o.Process,
		Metrics: o.Metrics,
	}
}

// Observe runs the observability probe for one experiment: the same model
// workload the experiment measures, instrumented with spans and metrics.
// Every probe is deterministic — virtual time stamps, fixed seeds — so
// its output is bit-identical across runs and worker counts.
func Observe(cfg Config, id string, opts ObserveOpts) (*Observation, error) {
	opts = opts.withDefaults()
	profiles := cfg.Profiles
	if len(profiles) == 0 {
		profiles = osprofile.Paper()
	}
	plat := bench.PaperPlatform()
	title := id
	if e, ok := Lookup(id); ok {
		title = e.Title
	}
	out := &Observation{ID: id, Title: title}

	if r, ok := memRoutines[id]; ok {
		const size = 1 << 20
		m := memmodel.NewModel(plat.CPU, cache.PentiumConfig())
		pt := m.ObservedBandwidth(r, size)
		reg := obs.NewRegistry()
		pt.Stats.FoldStats(reg, "cache.")
		reg.Counter("mem.mbs").Add(pt.MBs)
		reg.Counter("mem.overlap_cycles").Add(pt.Overlap)
		b := pt.Breakdown
		out.Runs = append(out.Runs, ObservedRun{
			Label: "Pentium P54C-100",
			Unit:  "cycles",
			Rows: []PhaseRow{
				{Name: "l1", Value: b.L1},
				{Name: "l2", Value: b.L2},
				{Name: "mem", Value: b.Mem},
				{Name: "writeback", Value: b.WriteBack},
				{Name: "overhead", Value: b.Overhead},
			},
			Total:   pt.SimCycles,
			Process: obs.Process{Name: "Pentium P54C-100"},
			Metrics: reg.Snapshot(),
		})
		out.foldProfiles()
		return out, nil
	}

	switch id {
	case "T2":
		for _, p := range profiles {
			_, o := bench.GetpidObserved(plat, p)
			out.Runs = append(out.Runs, benchRun(p.String(), o, "kernel.phase_us.", ""))
		}
	case "F1":
		for _, p := range profiles {
			smp := samplerFor(opts)
			_, o := bench.CtxSampled(plat, p, opts.Procs, bench.CtxRing, smp)
			run := benchRun(p.String(), o, "kernel.phase_us.", "")
			run.Series = seriesOf(smp, o.Total)
			out.Runs = append(out.Runs, run)
		}
	case "T4":
		for _, p := range profiles {
			_, o := bench.BwPipeObserved(plat, p)
			out.Runs = append(out.Runs, benchRun(p.String(), o, "kernel.phase_us.", ""))
		}
	case "T5":
		for _, p := range profiles {
			_, o := bench.BwTCPObserved(p, 0, injFor(cfg, opts, id, p))
			out.Runs = append(out.Runs, benchRun(p.String(), o, "tcp.", "_us"))
		}
	case "T6":
		for _, p := range profiles {
			_, o := bench.MABNFSObserved(p, bench.ServerLinux, bench.DefaultMAB(), cfg.Seed, injFor(cfg, opts, id, p))
			out.Runs = append(out.Runs, benchRun(p.String(), o, "mab.phase_us.", ""))
		}
	case "T7":
		for _, p := range profiles {
			_, o := bench.MABNFSObserved(p, bench.ServerSunOS, bench.DefaultMAB(), cfg.Seed, injFor(cfg, opts, id, p))
			out.Runs = append(out.Runs, benchRun(p.String(), o, "mab.phase_us.", ""))
		}
	case "F12":
		for _, p := range profiles {
			smp := samplerFor(opts)
			_, o := bench.CrtdelSampled(plat, p, opts.FileBytes, cfg.Seed, injFor(cfg, opts, id, p), smp)
			run := benchRun(p.String(), o, "fs.phase_us.", "")
			run.Series = seriesOf(smp, o.Total)
			out.Runs = append(out.Runs, run)
		}
	case "F13":
		for _, p := range profiles {
			_, o := bench.TTCPObserved(p, opts.PacketSize, injFor(cfg, opts, id, p))
			out.Runs = append(out.Runs, benchRun(p.String(), o, "udp.", "_us"))
		}
	case "S1", "S2":
		// Both scale exhibits probe the same server model; each
		// personality gets one run at opts.Clients with per-nfsd-slot
		// span tracks and the exact phase ledger as its rows.
		for _, p := range profiles {
			inj := injFor(cfg, opts, id, p)
			srv := nfsserver.New(nfsserver.Config{
				Profile: p,
				Clients: opts.Clients,
				Nfsd:    opts.Nfsd,
				Seed:    cfg.Seed ^ saltFor("scale", p.Name, opts.Clients),
				Faults:  inj.Net,
			})
			rec := obs.NewRing(srv.Clock(), bench.TraceRingCap)
			srv.SetRecorder(rec)
			smp := samplerFor(opts)
			srv.SetSampler(smp)
			ex := exemplarsFor(cfg, opts, p)
			srv.SetExemplars(ex)
			res := srv.Run()
			exWins := ex.Snapshot()
			name := fmt.Sprintf("%s %s", id, p)
			var requests *obs.Process
			if ex != nil {
				// Rendered post-run on a recorder of their own: free
				// while the model runs, and bounded by K per window.
				xrec := obs.NewRecorder(nil)
				obs.ExemplarTracks(xrec, exWins)
				proc := xrec.Capture(name + " requests")
				requests = &proc
			}
			reg := obs.NewRegistry()
			res.FoldMetrics(reg, "scale.")
			inj.FoldMetrics(reg, "fault.")
			led := res.Ledger
			for _, ph := range []struct {
				name string
				v    sim.Duration
			}{
				{"wire", led.Wire}, {"rto", led.RTO},
				{"queue_wait", led.QueueWait}, {"cpu", led.CPU},
				{"disk_wait", led.DiskWait}, {"disk_time", led.DiskTime},
			} {
				reg.Counter("scale.phase_us." + ph.name).Add(ph.v.Microseconds())
			}
			snap := reg.Snapshot()
			series := seriesOf(smp, res.Elapsed)
			if series != nil {
				series.Exemplars = exWins
			}
			out.Runs = append(out.Runs, ObservedRun{
				Label:         p.String(),
				Unit:          "µs",
				Rows:          rows(snap, "scale.phase_us.", ""),
				Total:         led.Sum().Microseconds(),
				Process:       rec.Capture(name),
				Requests:      requests,
				Metrics:       snap,
				Series:        series,
				Exemplars:     exWins,
				ExemplarDrops: ex.Dropped(),
				LatencyHist:   &res.Hist,
			})
		}
	default:
		return nil, fmt.Errorf("core: no observability probe for %q (have %v)", id, ObservableIDs())
	}
	out.foldProfiles()
	return out, nil
}

// samplerFor builds one probe run's time-series sampler, or nil when
// sampling is off — the nil threads through every model as inert
// handles, so the disabled path is byte-identical to builds without it.
func samplerFor(opts ObserveOpts) *obs.Sampler {
	if opts.Window <= 0 {
		return nil
	}
	return obs.NewSampler(opts.Window)
}

// exemplarsFor builds one S1/S2 probe run's exemplar reservoir, or nil
// when exemplar tracing is off. The seed forks from the config seed with
// its own salt, so exemplar selection is deterministic and independent
// of the model's RNG streams; the window width follows the sampler's,
// defaulting to 100 ms when sampling is off.
func exemplarsFor(cfg Config, opts ObserveOpts, p *osprofile.Profile) *obs.Exemplars {
	if opts.ExemplarK <= 0 {
		return nil
	}
	w := opts.Window
	if w <= 0 {
		w = 100 * sim.Millisecond
	}
	return obs.NewExemplars(cfg.Seed^saltFor("exemplar", p.Name, opts.Clients), opts.ExemplarK, w)
}

// seriesOf snapshots a run's sampler at its end time; nil in, nil out.
func seriesOf(smp *obs.Sampler, end sim.Duration) *obs.TimeSeries {
	if smp == nil {
		return nil
	}
	ts := smp.Snapshot(sim.Time(end))
	return &ts
}

// injFor builds the fault injectors for one (experiment, personality)
// probe run. The injector RNG forks from the seed with the same salt
// scheme the noise model uses, so a faulted suite is deterministic at
// every worker count and across runs. An inactive plan returns the
// zero Injectors without touching any RNG.
func injFor(cfg Config, opts ObserveOpts, id string, p *osprofile.Profile) fault.Injectors {
	return fault.New(opts.Faults, sim.NewRNG(cfg.Seed).Fork(saltFor(id, p.String(), 0)))
}

// processes returns the run's trace processes in export order: the
// model's capture, then the per-request exemplar trace when present.
func (r *ObservedRun) processes() []obs.Process {
	if r.Requests == nil {
		return []obs.Process{r.Process}
	}
	return []obs.Process{r.Process, *r.Requests}
}

// foldProfiles folds each run's span streams. Called once per probe,
// after the runs exist; per-run folding keeps the work inside the
// parallel task.
func (o *Observation) foldProfiles() {
	for i := range o.Runs {
		o.Runs[i].Profile = profile.Fold(o.Runs[i].processes()...)
	}
}

// FoldMetrics adds the run's statistics — pool shape, job counts, memo
// effectiveness, wall-clock times and worker utilization — to a registry
// under the given prefix. These are the runner's self-observability
// gauges; they carry real wall-clock time and therefore vary run to run,
// which is why determinism checks strip the prefix.
func (st *RunStats) FoldMetrics(reg *obs.Registry, prefix string) {
	reg.Counter(prefix + "workers").Add(float64(st.Workers))
	reg.Counter(prefix + "jobs").Add(float64(st.Jobs))
	reg.Counter(prefix + "inner_jobs").Add(float64(st.InnerJobs))
	reg.Counter(prefix + "memo_hits").Add(float64(st.MemoHits))
	reg.Counter(prefix + "memo_misses").Add(float64(st.MemoMisses))
	if st.Store != nil {
		// Persistent result-memo effectiveness, present only when a store
		// was attached (-memo), so storeless snapshots are unchanged.
		reg.Counter(prefix + "memo_store_hits").Add(float64(st.Store.Hits))
		reg.Counter(prefix + "memo_store_misses").Add(float64(st.Store.Misses))
		reg.Counter(prefix + "memo_store_stale").Add(float64(st.Store.Stale))
	}
	reg.Counter(prefix + "wall_us").Add(float64(st.Wall.Microseconds()))
	d := reg.Distribution(prefix + "experiment_wall_us")
	var busy time.Duration
	for _, e := range st.Experiments {
		d.Observe(float64(e.Wall.Microseconds()))
		busy += e.Wall
	}
	if st.Wall > 0 && st.Workers > 0 {
		util := float64(busy) / (float64(st.Wall) * float64(st.Workers))
		reg.Counter(prefix + "worker_utilization_pct").Add(100 * util)
	}
}

// SuiteObservation is the product of Runner.Observe: per-experiment
// observations, all trace processes in deterministic order, one
// merged metric snapshot, and the merged virtual-time profile.
// Everything except the "runner." self-metrics (real wall-clock,
// inherently nondeterministic) is bit-identical at every worker count;
// strip them with Metrics.ExcludePrefix("runner.") when comparing.
type SuiteObservation struct {
	Observations []*Observation
	Processes    []obs.Process
	Metrics      obs.Snapshot
	// Profile merges every run's folded profile in input order. Its
	// exports (folded, pprof, top) are byte-identical at every worker
	// count: per-run folds happen in the probe tasks, the merge walks
	// runs in input order, and the export order is canonical.
	Profile *profile.Profile
}

// Observe runs the probes for the given experiment IDs on the worker
// pool. Each probe runs with its own recorder and registry; the results
// are merged in input order — task order, never completion order — which
// is what makes the output independent of the worker count.
func (r *Runner) Observe(cfg Config, ids []string, opts ObserveOpts) (*SuiteObservation, error) {
	w := r.workers()
	obsv := make([]*Observation, len(ids))
	errs := make([]error, len(ids))
	timings := make([]ExperimentTiming, len(ids))
	start := time.Now()
	runOne := func(i int) {
		t0 := time.Now()
		obsv[i], errs[i] = Observe(cfg, ids[i], opts)
		timings[i] = ExperimentTiming{ID: ids[i], Wall: time.Since(t0)}
	}
	if w <= 1 {
		for i := range ids {
			runOne(i)
		}
	} else {
		pool := newWorkPool(w)
		var wg sync.WaitGroup
		for i := range ids {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				pool.acquire()
				defer pool.release()
				runOne(i)
			}()
		}
		wg.Wait()
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("observe %s: %w", ids[i], err)
		}
	}

	suite := &SuiteObservation{Observations: obsv, Profile: profile.New()}
	var parts []obs.Snapshot
	for _, o := range obsv {
		for _, run := range o.Runs {
			parts = append(parts, run.Metrics)
			suite.Processes = append(suite.Processes, run.processes()...)
			suite.Profile.Merge(run.Profile)
		}
	}
	merged := obs.MergeSnapshots(parts...)

	// Runner self-observability: real wall-clock task timings and worker
	// utilization, kept under "runner." so determinism comparisons can
	// exclude them.
	st := &RunStats{Workers: w, Jobs: len(ids), Wall: time.Since(start), Experiments: timings}
	reg := obs.NewRegistry()
	st.FoldMetrics(reg, "runner.")
	// Ring-bound trace truncation, summed across every captured process,
	// so dropped events are visible outside `trace -format=text`. Under
	// "runner." like the other self-metrics: the value is deterministic,
	// but it describes the capture, not the models.
	dropped := 0
	for _, pr := range suite.Processes {
		dropped += pr.Dropped
	}
	reg.Counter("runner.obs_dropped").Add(float64(dropped))
	// Exemplar reservoir rejections, summed across runs — the
	// capture-fidelity counterpart of obs_dropped for exemplar tracing
	// (deterministic: a pure function of the offered request sets).
	var exDropped int64
	for _, o := range obsv {
		for _, run := range o.Runs {
			exDropped += run.ExemplarDrops
		}
	}
	reg.Counter("runner.exemplars_dropped").Add(float64(exDropped))
	suite.Metrics = obs.MergeSnapshots(merged, reg.Snapshot())
	return suite, nil
}
