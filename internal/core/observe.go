package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/audit"
	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/memmodel"
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
// captured trace, the full metric snapshot and, for an audited run, its
// audit verdict.
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
	// requests renders the per-request exemplar trace (see Requests), nil
	// without exemplar tracing.
	requests func() *obs.Process
	// Metrics is the run's full metric snapshot.
	Metrics obs.Snapshot
	// Profile is the run's span stream folded into weighted call stacks
	// (virtual nanoseconds; DESIGN.md §10), nil until Observation.Fold
	// folds it: only the views that read a profile pay for the fold.
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
	// verdict is the run's audit report, evaluated in the run's own task:
	// L1's runs always carry one, an S1/S2 run when it records both the
	// sampler and the exemplar reservoir (Observation.Audit collects
	// them).
	verdict *audit.Report
}

// Requests is the per-request exemplar trace (one "req <id>" track per
// retained exemplar), present only when ObserveOpts.ExemplarK enabled
// exemplar tracing. It is recorded apart from Process and exported as a
// Chrome process of its own, so it never pushes model events out of
// Process's bounded ring. It is rendered from the exemplars on first
// read, once per observed run, and shared by the run's projections, so
// a view that never reads it never pays for it.
func (r *ObservedRun) Requests() *obs.Process {
	if r.requests == nil {
		return nil
	}
	return r.requests()
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

// DefaultExemplarK is the exemplar reservoir size of an audit, and of a
// view that keeps exemplars, when none is asked for: an audit without
// exemplars would skip its per-request checks.
const DefaultExemplarK = 4

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
// feed. observe produces the exhibit's observed runs; audited says they
// carry audit verdicts under Audit's options, and auditOnly that they
// carry nothing else, so the exhibit is auditable but not observable;
// sampled, faultable and exemplars say whether its runs carry the
// sampler, the fault injectors and the exemplar reservoir of
// ObserveOpts. Every id list below is computed from the probes table,
// so an exhibit's views are declared once, here.
type probe struct {
	observe   func(cfg Config, id string, opts ObserveOpts) []ObservedRun
	audited   bool
	auditOnly bool
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
	"S1": {observe: eachProfile(observeScale), audited: true, sampled: true, faultable: true, exemplars: true},
	"S2": {observe: eachProfile(observeScale), audited: true, sampled: true, faultable: true, exemplars: true},
	"L1": {observe: observeLocks, audited: true, auditOnly: true},
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

// observable reports whether the probe's runs feed the views other than
// audit.
func (p probe) observable() bool { return p.observe != nil && !p.auditOnly }

// ObservableIDs returns the experiment IDs Runner.Observe has probes
// for, in presentation order.
func ObservableIDs() []string { return probeIDs(probe.observable) }

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
func AuditableIDs() []string { return probeIDs(func(p probe) bool { return p.audited }) }

// probeProfiles is the personality set a probe runs: the configured
// one, or the paper's three when none is configured.
func probeProfiles(cfg Config) []*osprofile.Profile {
	if len(cfg.Profiles) == 0 {
		return osprofile.Paper()
	}
	return cfg.Profiles
}

// eachProfile adapts a one-personality probe into one run per profile,
// fanned out on cfg's pool and kept in profile order.
func eachProfile(run func(cfg Config, id string, opts ObserveOpts, p *osprofile.Profile) ObservedRun) func(Config, string, ObserveOpts) []ObservedRun {
	return func(cfg Config, id string, opts ObserveOpts) []ObservedRun {
		profiles := probeProfiles(cfg)
		runs := make([]ObservedRun, len(profiles))
		parallelFor(cfg, len(profiles), func(i int) { runs[i] = run(cfg, id, opts, profiles[i]) })
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

// observeScale probes one personality of S1/S2 at opts.Clients, with
// the run's fault injectors, sampler, exemplar reservoir and a span ring
// (one track per nfsd slot) attached: its span tracks, the exact phase
// ledger as its rows, its series and exemplars, and — when it records
// both the sampler and the reservoir — the queueing-law verdict on
// itself, so the audited run is the observed run.
func observeScale(cfg Config, id string, opts ObserveOpts, p *osprofile.Profile) ObservedRun {
	inj, smp, ex := injFor(cfg, opts, id, p), samplerFor(opts), exemplarsFor(cfg, opts, p)
	srv := scaleServer(cfg, p, opts.Clients, opts.Nfsd, inj.Net)
	defer srv.Release() // after Facts, the last read (see scaleServer)
	rec := obs.NewRing(srv.Clock(), bench.TraceRingCap)
	srv.SetRecorder(rec)
	srv.SetSampler(smp)
	srv.SetExemplars(ex)
	res := srv.Run()
	exWins := ex.Snapshot()
	name := fmt.Sprintf("%s %s", id, p)
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
	run := ObservedRun{
		Label:         p.String(),
		Unit:          "µs",
		Rows:          rows(snap, "scale.phase_us.", ""),
		Total:         led.Sum().Microseconds(),
		Process:       rec.Capture(name),
		Metrics:       snap,
		Series:        seriesOf(smp, res.Elapsed),
		Exemplars:     exWins,
		ExemplarDrops: ex.Dropped(),
		LatencyHist:   &res.Hist,
	}
	if ex != nil {
		// Rendered on a recorder of their own, off the model's path and
		// bounded by K per window.
		run.requests = sync.OnceValue(func() *obs.Process {
			xrec := obs.NewRecorder(nil)
			obs.ExemplarTracks(xrec, exWins)
			proc := xrec.Capture(name + " requests")
			return &proc
		})
	}
	if run.Series == nil || ex == nil {
		return run
	}
	run.Series.Exemplars = exWins
	// A series that outgrew the sampler's budget misses the run's end,
	// so every windowed check would fail: Observation.Audit refuses it.
	if run.Series.Overflow == nil {
		run.verdict = audit.Evaluate(audit.Input{
			System:    p.String(),
			Res:       res,
			Facts:     srv.Facts(),
			Series:    run.Series,
			Exemplars: exWins,
			ExemplarK: opts.ExemplarK,
		})
	}
	return run
}

// observeLocks is L1's audit-only probe: the L2 sweep point (eight CPUs,
// the L1 critical section) once per personality and lock kind — the
// construction the exhibits use — each run carrying the verdict of the
// per-CPU ledger and lock flow-balance invariants. The run is a pure
// function of its parameters (no RNG), so the audited run is the
// exhibited run; fault plans have nothing to reach here.
func observeLocks(cfg Config, _ string, _ ObserveOpts) []ObservedRun {
	profiles := probeProfiles(cfg)
	runs := make([]ObservedRun, len(profiles)*len(LockKinds))
	parallelFor(cfg, len(runs), func(i int) {
		p, kind := profiles[i/len(LockKinds)], LockKinds[i%len(LockKinds)]
		r := LockPoint(p, kind, lockSweepNCPU, LockCrit)
		m, l := r.Machine, r.Lock
		in := audit.SMPInput{
			System:  fmt.Sprintf("%s %s", p, kind),
			NCPU:    m.NCPU(),
			Threads: len(m.Threads()),
			Elapsed: m.Elapsed(),
			Busy:    make([]sim.Duration, m.NCPU()),
			Idle:    make([]sim.Duration, m.NCPU()),
			Spin:    make([]sim.Duration, m.NCPU()),
			Locks: []audit.LockFacts{{
				Acquires:    l.Acquires,
				Releases:    l.Releases,
				Contended:   l.Contended,
				Uncontended: l.Uncontended,
				Blocks:      l.Blocks,
				Wakeups:     l.Wakeups,
				WaitCount:   l.WaitHist.N(),
			}},
		}
		for c := 0; c < m.NCPU(); c++ {
			in.Busy[c], in.Idle[c], in.Spin[c] = m.Ledger(c)
		}
		runs[i] = ObservedRun{Label: in.System, verdict: audit.EvaluateSMP(in)}
	})
	return runs
}

// observe runs id's probe, unfolded: the same model workload the
// experiment measures, instrumented with spans and metrics, each run's
// audit verdict evaluated in the run's task. Every probe is
// deterministic — virtual time stamps, fixed seeds — so its output is
// bit-identical across runs and worker counts.
func observe(cfg Config, id string, opts ObserveOpts) (*Observation, error) {
	p := probes[id]
	if p.observe == nil {
		return nil, fmt.Errorf("core: no probe for %q (observable %v, auditable %v)", id, ObservableIDs(), AuditableIDs())
	}
	opts = p.restrict(opts.withDefaults())
	return &Observation{ID: id, Title: titleOf(id), Runs: p.observe(cfg, id, opts)}, nil
}

// Project returns the observation as a view observed under opts shows
// it, for a run that records everything the view does, under the same
// window width: without a window the runs drop their series; without an
// exemplar reservoir they drop the request tracks, the exemplar windows,
// the drop count and the series' exemplars. The projected runs are
// unfolded (Fold folds them) and share their other fields with o, the
// verdicts and the request tracks' one rendering included.
func (o *Observation) Project(opts ObserveOpts) *Observation {
	opts = probes[o.ID].restrict(opts)
	out := &Observation{ID: o.ID, Title: o.Title, Runs: slices.Clone(o.Runs)}
	for i := range out.Runs {
		run := &out.Runs[i]
		run.Profile = nil
		if opts.Window <= 0 {
			run.Series = nil
		}
		if opts.ExemplarK > 0 {
			continue
		}
		run.requests, run.Exemplars, run.ExemplarDrops = nil, nil, 0
		if run.Series != nil && run.Series.Exemplars != nil {
			series := *run.Series
			series.Exemplars = nil
			run.Series = &series
		}
	}
	return out
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
	width := opts.Window
	if width <= 0 {
		width = 100 * sim.Millisecond
	}
	return obs.NewExemplars(cfg.Seed^saltFor("exemplar", p.Name, opts.Clients), opts.ExemplarK, width)
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
	if r.requests == nil {
		return []obs.Process{r.Process}
	}
	return []obs.Process{r.Process, *r.requests()}
}

// Fold folds each run's span streams into its profile. The runs come
// unfolded, so only the views and captures that read a profile fold.
func (o *Observation) Fold() {
	for i := range o.Runs {
		o.Runs[i].Profile = profile.Fold(o.Runs[i].processes()...)
	}
}

// SuiteObservation is the product of Runner.Observe: per-experiment
// observations and all their trace processes in deterministic order,
// bit-identical at every worker count. The runs are unfolded; fold an
// observation (Observation.Fold) to read its runs' profiles.
type SuiteObservation struct {
	Observations []*Observation
	Processes    []obs.Process
}

// Observe runs the probes for the given observable experiment IDs on
// the worker pool (ObserveRuns) and collects their trace processes
// (Processes). It refuses ids that are not observable.
func (r *Runner) Observe(cfg Config, ids []string, opts ObserveOpts) (*SuiteObservation, error) {
	for _, id := range ids {
		if !probes[id].observable() {
			return nil, fmt.Errorf("observe %s: core: no observability probe for %q (have %v)", id, id, ObservableIDs())
		}
	}
	obsv, err := r.ObserveRuns(cfg, ids, opts)
	if err != nil {
		return nil, err
	}
	return &SuiteObservation{Observations: obsv, Processes: Processes(obsv)}, nil
}

// ObserveRuns observes each experiment once, each id one task on the
// pool, which each probe borrows to run its personalities too. The
// observations come in input order, to be projected onto the views they
// serve (Observation.Project): their runs carry every recorder
// opts asks for and their audit verdicts, and their profiles are left
// for the views that read one to fold. Observation.Audit collects the
// verdicts. Auditable ids that are not observable (L1) are observed too.
func (r *Runner) ObserveRuns(cfg Config, ids []string, opts ObserveOpts) ([]*Observation, error) {
	obsv := make([]*Observation, len(ids))
	errs := make([]error, len(ids))
	cfg.pool = newWorkPool(r.workers())
	forEach(cfg.pool, len(ids), func(i int) {
		obsv[i], errs[i] = observe(cfg, ids[i], opts)
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("observe %s: %w", ids[i], err)
		}
	}
	return obsv, nil
}

// Processes returns the observations' trace processes in export order:
// input order, then profile order within an id — task order, never
// completion order, which is what makes a trace independent of the
// worker count. Each run gives its model capture, then its per-request
// exemplar trace when it has one.
func Processes(obsv []*Observation) []obs.Process {
	var out []obs.Process
	for _, o := range obsv {
		for i := range o.Runs {
			out = append(out, o.Runs[i].processes()...)
		}
	}
	return out
}

// MergeProfiles merges the runs' folded profiles in Processes' order, or
// returns nil when a run is unfolded (see Observation.Fold). Its exports
// (folded, pprof, top) are byte-identical at every worker count: the
// merge order is fixed and the export order canonical.
func MergeProfiles(obsv []*Observation) *profile.Profile {
	merged := profile.New()
	for _, o := range obsv {
		for _, run := range o.Runs {
			if run.Profile == nil {
				return nil
			}
			merged.Merge(run.Profile)
		}
	}
	return merged
}
