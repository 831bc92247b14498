package core

import (
	"fmt"

	"repro/internal/audit"
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
// balance for L1 (§16). Window defaults to 100 ms and ExemplarK to 4
// when unset: an audit without windows or exemplars would skip most of
// its checks.
func Audit(cfg Config, id string, opts ObserveOpts) (*AuditObservation, error) {
	pr := probes[id]
	if pr.audit == nil {
		return nil, fmt.Errorf("core: no audit for %q (have %v)", id, AuditableIDs())
	}
	opts = opts.withDefaults()
	if opts.Window <= 0 {
		opts.Window = 100 * sim.Millisecond
	}
	if opts.ExemplarK <= 0 {
		opts.ExemplarK = 4
	}
	out := &AuditObservation{ID: id, Title: titleOf(id)}
	for _, p := range probeProfiles(cfg) {
		out.Reports = append(out.Reports, pr.audit(cfg, id, opts, p)...)
	}
	return out, nil
}

// auditScale audits one personality's S1/S2 server run, the run Observe
// makes, with the sampler and exemplar reservoir attached.
func auditScale(cfg Config, id string, opts ObserveOpts, p *osprofile.Profile) []*audit.Report {
	r := runScale(cfg, id, opts, p)
	return []*audit.Report{audit.Evaluate(audit.Input{
		System:    p.String(),
		Res:       r.res,
		Facts:     r.srv.Facts(),
		Series:    seriesOf(r.smp, r.res.Elapsed),
		Exemplars: r.ex.Snapshot(),
		ExemplarK: opts.ExemplarK,
	})}
}

// auditLocks re-runs the L2 sweep point (eight CPUs, the L1 critical
// section) for both lock kinds of one personality — the same
// construction the exhibits use — and checks the per-CPU ledger and
// lock flow-balance invariants. The run is a pure function of its
// parameters (no RNG), so the audited run is the exhibited run; fault
// plans have nothing to reach here.
func auditLocks(cfg Config, id string, opts ObserveOpts, p *osprofile.Profile) []*audit.Report {
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
	return reps
}
