package core

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/audit"
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
	// Clients is the client population for the S1/S2 scale probes
	// (default 1000 — the knee of the curves); Nfsd is the server's
	// worker-slot count (default 8).
	Clients int
	Nfsd    int
	// Faults, when non-nil and active, injects the plan's faults into
	// the probes that model faultable hardware (see FaultableIDs). Each
	// (experiment, personality) run forks its own injector RNG from the
	// seed, so results are bit-identical at every worker count. Nil runs
	// clean.
	Faults *fault.Plan
	// Window, when positive, attaches a virtual-time time-series
	// sampler of that window width to the probes in SampledIDs; each
	// sampled run's ObservedRun.Series carries the snapshot. Zero (the
	// default) samples nothing and the probes are byte-identical to
	// builds without the sampler.
	Window sim.Duration
	// ExemplarK, when positive, attaches a deterministic per-window
	// exemplar reservoir of that capacity to the probes in ExemplarIDs:
	// each run's ObservedRun.Exemplars carries the tail-biased sample,
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
	if o.Clients <= 0 {
		o.Clients = 1000
	}
	if o.Nfsd <= 0 {
		o.Nfsd = ScaleNfsd
	}
	return o
}

const (
	// crtdelProbeBytes is the file size the F12 probe creates and
	// deletes; ttcpProbePacket the datagram size the F13 probe sends.
	crtdelProbeBytes = 64 << 10
	ttcpProbePacket  = 1024
)

// A probe declares how one exhibit is observed and which views its runs
// feed. observe produces the exhibit's observed runs (nil: it is not
// observable); audit evaluates one personality's invariants (nil: the
// exhibit is not auditable); sampled, faultable and exemplars say
// whether its runs carry the sampler, the fault injectors and the
// exemplar reservoir of ObserveOpts. Every id list below is computed
// from the probes table, so an exhibit's views are declared once, here.
type probe struct {
	observe   func(cfg Config, id string, opts ObserveOpts) []ObservedRun
	audit     func(cfg Config, id string, opts ObserveOpts, p *osprofile.Profile) []*audit.Report
	sampled   bool
	faultable bool
	exemplars bool
}

// probes maps each exhibit with views to its probe. A bench probe names
// the one scoped call its exhibit's observed run makes.
var probes = map[string]probe{
	"T2": {observe: benchProbe("kernel.phase_us.", "", func(s *bench.Scope, _ Config, _ ObserveOpts, p *osprofile.Profile) {
		s.Getpid(bench.PaperPlatform(), p)
	})},
	"T4": {observe: benchProbe("kernel.phase_us.", "", func(s *bench.Scope, _ Config, _ ObserveOpts, p *osprofile.Profile) {
		s.BwPipe(bench.PaperPlatform(), p)
	})},
	"T5": {observe: benchProbe("tcp.", "_us", func(s *bench.Scope, _ Config, _ ObserveOpts, p *osprofile.Profile) {
		s.BwTCP(p, 0)
	}), faultable: true},
	"T6": {observe: benchProbe("mab.phase_us.", "", func(s *bench.Scope, cfg Config, _ ObserveOpts, p *osprofile.Profile) {
		s.MABNFS(p, bench.ServerLinux, bench.DefaultMAB(), cfg.Seed)
	}), faultable: true},
	"T7": {observe: benchProbe("mab.phase_us.", "", func(s *bench.Scope, cfg Config, _ ObserveOpts, p *osprofile.Profile) {
		s.MABNFS(p, bench.ServerSunOS, bench.DefaultMAB(), cfg.Seed)
	}), faultable: true},
	"F1": {observe: benchProbe("kernel.phase_us.", "", func(s *bench.Scope, _ Config, opts ObserveOpts, p *osprofile.Profile) {
		s.Ctx(bench.PaperPlatform(), p, opts.Procs, bench.CtxRing)
	}), sampled: true},
	"F2": {observe: observeMem(memmodel.CustomRead)},
	"F3": {observe: observeMem(memmodel.Memset)},
	"F4": {observe: observeMem(memmodel.NaiveWrite)},
	"F5": {observe: observeMem(memmodel.PrefetchWrite)},
	"F6": {observe: observeMem(memmodel.LibcMemcpy)},
	"F7": {observe: observeMem(memmodel.NaiveCopy)},
	"F8": {observe: observeMem(memmodel.PrefetchCopy)},
	"F12": {observe: benchProbe("fs.phase_us.", "", func(s *bench.Scope, cfg Config, _ ObserveOpts, p *osprofile.Profile) {
		s.Crtdel(bench.PaperPlatform(), p, crtdelProbeBytes, cfg.Seed)
	}), sampled: true, faultable: true},
	"F13": {observe: benchProbe("udp.", "_us", func(s *bench.Scope, _ Config, _ ObserveOpts, p *osprofile.Profile) {
		s.TTCP(p, ttcpProbePacket)
	}), faultable: true},
	"S1": {observe: eachProfile(observeScale), audit: auditScale, sampled: true, faultable: true, exemplars: true},
	"S2": {observe: eachProfile(observeScale), audit: auditScale, sampled: true, faultable: true, exemplars: true},
	"L1": {audit: auditLocks},
}

// probeIDs returns the ids whose probe has the property, in
// presentation order.
func probeIDs(has func(probe) bool) []string {
	var ids []string
	for id, p := range probes {
		if has(p) {
			ids = append(ids, id)
		}
	}
	slices.SortFunc(ids, func(a, b string) int { return rank(a) - rank(b) })
	return ids
}

// ObservableIDs returns the experiment IDs Observe has probes for, in
// presentation order.
func ObservableIDs() []string { return probeIDs(func(p probe) bool { return p.observe != nil }) }

// SampledIDs returns the observable experiments whose probes carry
// time-series instrumentation: the kernel scheduler (F1), the benchmark
// disk (F12), and the NFS scale-out server (S1, S2).
func SampledIDs() []string { return probeIDs(func(p probe) bool { return p.sampled }) }

// FaultableIDs returns the observable experiments whose probes consult
// the fault injectors: the ones modelling disk, network or buffer-cache
// hardware. The other probes run identically under any plan.
func FaultableIDs() []string { return probeIDs(func(p probe) bool { return p.faultable }) }

// ExemplarIDs returns the observable experiments whose models offer
// per-request lifecycles to an exemplar reservoir: the NFS scale-out
// server (S1, S2).
func ExemplarIDs() []string { return probeIDs(func(p probe) bool { return p.exemplars }) }

// AuditableIDs returns the experiments the audit engine can evaluate:
// the NFS scale-out probes, whose server model carries the double-entry
// accounting the queueing-law invariants cross-check, and the SMP
// lock-contention exhibit, whose per-CPU ledgers and lock flow counters
// carry the DESIGN.md §16 exactness invariants.
func AuditableIDs() []string { return probeIDs(func(p probe) bool { return p.audit != nil }) }

// probeProfiles is the personality set a probe runs: the configured
// one, or the paper's three when none is configured.
func probeProfiles(cfg Config) []*osprofile.Profile {
	if len(cfg.Profiles) == 0 {
		return osprofile.Paper()
	}
	return cfg.Profiles
}

// eachProfile adapts a one-personality probe into one run per profile.
func eachProfile(run func(cfg Config, id string, opts ObserveOpts, p *osprofile.Profile) ObservedRun) func(Config, string, ObserveOpts) []ObservedRun {
	return func(cfg Config, id string, opts ObserveOpts) []ObservedRun {
		var runs []ObservedRun
		for _, p := range probeProfiles(cfg) {
			runs = append(runs, run(cfg, id, opts, p))
		}
		return runs
	}
}

// titleOf is an experiment's title, or its id when none is registered.
func titleOf(id string) string {
	if e, ok := Lookup(id); ok {
		return e.Title
	}
	return id
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

// benchProbe turns one scoped bench call into a probe: per personality
// it runs call on a scope carrying the run's sampler and fault
// injectors, and its rows are the snapshot counters named
// prefix+...+suffix, in µs.
func benchProbe(prefix, suffix string, call func(s *bench.Scope, cfg Config, opts ObserveOpts, p *osprofile.Profile)) func(Config, string, ObserveOpts) []ObservedRun {
	return eachProfile(func(cfg Config, id string, opts ObserveOpts, p *osprofile.Profile) ObservedRun {
		s := &bench.Scope{Sampler: samplerFor(opts), Faults: injFor(cfg, opts, id, p)}
		call(s, cfg, opts, p)
		return ObservedRun{
			Label:   p.String(),
			Unit:    "µs",
			Rows:    rows(s.Metrics, prefix, suffix),
			Total:   s.Total.Microseconds(),
			Process: s.Process,
			Metrics: s.Metrics,
			Series:  seriesOf(s.Sampler, s.Total),
		}
	})
}

// observeMem probes one §6 memory figure: a single run of its routine
// at 1 MB on the Pentium's cache hierarchy, rows in cycles.
func observeMem(r memmodel.Routine) func(Config, string, ObserveOpts) []ObservedRun {
	return func(Config, string, ObserveOpts) []ObservedRun {
		const size = 1 << 20
		m := memmodel.NewModel(bench.PaperPlatform().CPU, cache.PentiumConfig())
		pt := m.ObservedBandwidth(r, size)
		reg := obs.NewRegistry()
		pt.Stats.FoldStats(reg, "cache.")
		reg.Counter("mem.mbs").Add(pt.MBs)
		reg.Counter("mem.overlap_cycles").Add(pt.Overlap)
		b := pt.Breakdown
		return []ObservedRun{{
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
		}}
	}
}

// A scaleRun is the one S1/S2 server run that Observe and Audit share:
// one personality at opts.Clients with the run's fault injectors,
// sampler, exemplar reservoir and a span ring (one track per nfsd slot)
// attached. Observe renders it and Audit evaluates it, so the audited
// run is the observed run.
type scaleRun struct {
	srv *nfsserver.Server
	res *nfsserver.Result
	inj fault.Injectors
	rec *obs.Recorder
	smp *obs.Sampler
	ex  *obs.Exemplars
}

func runScale(cfg Config, id string, opts ObserveOpts, p *osprofile.Profile) scaleRun {
	r := scaleRun{inj: injFor(cfg, opts, id, p), smp: samplerFor(opts), ex: exemplarsFor(cfg, opts, p)}
	r.srv = scaleServer(cfg, p, opts.Clients, opts.Nfsd, r.inj.Net)
	r.rec = obs.NewRing(r.srv.Clock(), bench.TraceRingCap)
	r.srv.SetRecorder(r.rec)
	r.srv.SetSampler(r.smp)
	r.srv.SetExemplars(r.ex)
	r.res = r.srv.Run()
	return r
}

// observeScale probes one personality of S1/S2: its span tracks, the
// exact phase ledger as its rows, and its series and exemplars.
func observeScale(cfg Config, id string, opts ObserveOpts, p *osprofile.Profile) ObservedRun {
	r := runScale(cfg, id, opts, p)
	res := r.res
	exWins := r.ex.Snapshot()
	name := fmt.Sprintf("%s %s", id, p)
	var requests *obs.Process
	if r.ex != nil {
		// Rendered post-run on a recorder of their own: free while the
		// model runs, and bounded by K per window.
		xrec := obs.NewRecorder(nil)
		obs.ExemplarTracks(xrec, exWins)
		proc := xrec.Capture(name + " requests")
		requests = &proc
	}
	reg := obs.NewRegistry()
	res.FoldMetrics(reg, "scale.")
	r.inj.FoldMetrics(reg, "fault.")
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
	series := seriesOf(r.smp, res.Elapsed)
	if series != nil {
		series.Exemplars = exWins
	}
	return ObservedRun{
		Label:         p.String(),
		Unit:          "µs",
		Rows:          rows(snap, "scale.phase_us.", ""),
		Total:         led.Sum().Microseconds(),
		Process:       r.rec.Capture(name),
		Requests:      requests,
		Metrics:       snap,
		Series:        series,
		Exemplars:     exWins,
		ExemplarDrops: r.ex.Dropped(),
		LatencyHist:   &res.Hist,
	}
}

// Observe runs the observability probe for one experiment: the same model
// workload the experiment measures, instrumented with spans and metrics.
// Every probe is deterministic — virtual time stamps, fixed seeds — so
// its output is bit-identical across runs and worker counts.
func Observe(cfg Config, id string, opts ObserveOpts) (*Observation, error) {
	p := probes[id]
	if p.observe == nil {
		return nil, fmt.Errorf("core: no observability probe for %q (have %v)", id, ObservableIDs())
	}
	out := &Observation{ID: id, Title: titleOf(id), Runs: p.observe(cfg, id, p.restrict(opts.withDefaults()))}
	out.foldProfiles()
	return out, nil
}

// restrict clears the options for the views p does not feed, so a run
// carries a sampler, fault injectors or an exemplar reservoir only when
// its probe declares it.
func (p probe) restrict(opts ObserveOpts) ObserveOpts {
	if !p.sampled {
		opts.Window = 0
	}
	if !p.faultable {
		opts.Faults = nil
	}
	if !p.exemplars {
		opts.ExemplarK = 0
	}
	return opts
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
	forEach(newWorkPool(w), len(ids), func(i int) {
		t0 := time.Now()
		obsv[i], errs[i] = Observe(cfg, ids[i], opts)
		timings[i] = ExperimentTiming{ID: ids[i], Wall: time.Since(t0)}
	})
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
