package core

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/nfsserver"
	"repro/internal/obs"
	"repro/internal/osprofile"
	"repro/internal/sim"
)

// AuditObservation is the product of one experiment's queueing-law
// audit: one verdict report per OS personality.
type AuditObservation struct {
	ID      string
	Title   string
	Reports []*audit.Report
}

// OK reports whether every personality audited clean.
func (a *AuditObservation) OK() bool {
	for _, r := range a.Reports {
		if !r.OK() {
			return false
		}
	}
	return true
}

// Audit re-runs one experiment's probe per personality — the same
// construction and seeds Observe uses, so the audited run is the
// exhibited run — and evaluates its invariants: the queueing laws for
// the scale probes (DESIGN.md §15), the per-CPU ledgers and lock flow
// balance for L1 (§16). The options take AuditOpts' defaults. The
// personalities run through cfg's pool (Runner.Audit), serially without
// one.
func Audit(cfg Config, id string, opts ObserveOpts) (*AuditObservation, error) {
	pr := probes[id]
	if pr.audit == nil {
		return nil, fmt.Errorf("core: no audit for %q (have %v)", id, AuditableIDs())
	}
	opts = AuditOpts(opts)
	profiles := probeProfiles(cfg)
	reps := make([][]*audit.Report, len(profiles))
	errs := make([]error, len(profiles))
	parallelFor(cfg, len(profiles), func(i int) { reps[i], errs[i] = pr.audit(cfg, id, opts, profiles[i]) })
	out := &AuditObservation{ID: id, Title: titleOf(id)}
	for i := range profiles {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out.Reports = append(out.Reports, reps[i]...)
	}
	return out, nil
}

// AuditOpts is opts with the defaults an audit runs under: Observe's,
// then a 100 ms window and an exemplar reservoir of 4 when unset — an
// audit without windows or exemplars would skip most of its checks.
func AuditOpts(opts ObserveOpts) ObserveOpts {
	opts = opts.withDefaults()
	if opts.Window <= 0 {
		opts.Window = 100 * sim.Millisecond
	}
	if opts.ExemplarK <= 0 {
		opts.ExemplarK = 4
	}
	return opts
}

// Audit audits ids on the runner's pool, each id one task that runs its
// personalities through the pool too; the observations keep input and
// profile order, so the verdicts are the same at every worker count.
func (r *Runner) Audit(cfg Config, ids []string, opts ObserveOpts) ([]*AuditObservation, error) {
	cfg.pool = newWorkPool(r.workers())
	out := make([]*AuditObservation, len(ids))
	errs := make([]error, len(ids))
	forEach(cfg.pool, len(ids), func(i int) { out[i], errs[i] = Audit(cfg, ids[i], opts) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Audit evaluates the invariants of the observation's own runs, so the
// audited run is the observed run; observe or project it under
// AuditOpts for the verdicts Audit gives. It fails for an exhibit whose
// runs carry no audit evidence.
func (o *Observation) Audit() (*AuditObservation, error) {
	out := &AuditObservation{ID: o.ID, Title: o.Title}
	for _, run := range o.Runs {
		if run.evidence == nil {
			return nil, fmt.Errorf("core: the %s runs carry no audit evidence", o.ID)
		}
		rep, err := run.evidence.report(run.Label, run.Series, run.Exemplars, o.opts.ExemplarK)
		if err != nil {
			return nil, err
		}
		out.Reports = append(out.Reports, rep)
	}
	return out, nil
}

// scaleEvidence is what auditing an S1/S2 run reads besides its series
// and exemplars: the server's result and its end-of-run accounting.
type scaleEvidence struct {
	res   *nfsserver.Result
	facts nfsserver.Facts
}

// evidence keeps the run's audit evidence, so the server can go.
func (r scaleRun) evidence() *scaleEvidence {
	return &scaleEvidence{res: r.res, facts: r.srv.Facts()}
}

// report evaluates the queueing laws on one run. A series that outgrew
// the sampler's budget is refused: its windows miss the run's end, so
// every windowed check would fail.
func (e *scaleEvidence) report(system string, series *obs.TimeSeries, exemplars []obs.ExemplarWindow, k int) (*audit.Report, error) {
	if series != nil && series.Overflow != nil {
		return nil, series.Overflow
	}
	return audit.Evaluate(audit.Input{
		System:    system,
		Res:       e.res,
		Facts:     e.facts,
		Series:    series,
		Exemplars: exemplars,
		ExemplarK: k,
	}), nil
}

// auditScale audits one personality's S1/S2 server run, the run Observe
// makes, with the sampler and exemplar reservoir attached.
func auditScale(cfg Config, id string, opts ObserveOpts, p *osprofile.Profile) ([]*audit.Report, error) {
	r := runScale(cfg, id, opts, p)
	rep, err := r.evidence().report(p.String(), seriesOf(r.smp, r.res.Elapsed), r.ex.Snapshot(), opts.ExemplarK)
	if err != nil {
		return nil, err
	}
	return []*audit.Report{rep}, nil
}

// auditLocks re-runs the L2 sweep point (eight CPUs, the L1 critical
// section) for both lock kinds of one personality — the same
// construction the exhibits use — and checks the per-CPU ledger and
// lock flow-balance invariants. The run is a pure function of its
// parameters (no RNG), so the audited run is the exhibited run; fault
// plans have nothing to reach here.
func auditLocks(cfg Config, id string, opts ObserveOpts, p *osprofile.Profile) ([]*audit.Report, error) {
	var reps []*audit.Report
	for _, kind := range LockKinds {
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
		reps = append(reps, audit.EvaluateSMP(in))
	}
	return reps, nil
}
