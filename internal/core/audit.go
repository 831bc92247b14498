package core

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/sim"
)

// AuditObservation is the product of one experiment's queueing-law
// audit: one verdict report per audited run.
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

// Audit observes one experiment and collects its runs' verdicts
// (Observation.Audit): the queueing laws for the scale probes (DESIGN.md
// §15), the per-CPU ledgers and lock flow balance for L1 (§16). Unless
// opts sets them, the runs record a 100 ms window and DefaultExemplarK
// exemplars: an audit without windows or exemplars would skip most of
// its checks. The runs go through cfg's pool, serially without one.
func Audit(cfg Config, id string, opts ObserveOpts) (*AuditObservation, error) {
	if !probes[id].audited {
		return nil, fmt.Errorf("core: no audit for %q (have %v)", id, AuditableIDs())
	}
	if opts.Window <= 0 {
		opts.Window = 100 * sim.Millisecond
	}
	if opts.ExemplarK <= 0 {
		opts.ExemplarK = DefaultExemplarK
	}
	o, err := observe(cfg, id, opts)
	if err != nil {
		return nil, err
	}
	return o.Audit()
}

// Audit collects the verdicts the observation's runs carry, each
// evaluated in its run's task, so the audited run is the observed run;
// observe it under Audit's options for the verdicts Audit gives. A
// series that outgrew the sampler's window budget is refused, and so is
// a run that carries no verdict.
func (o *Observation) Audit() (*AuditObservation, error) {
	out := &AuditObservation{ID: o.ID, Title: o.Title}
	for _, run := range o.Runs {
		if run.Series != nil && run.Series.Overflow != nil {
			return nil, run.Series.Overflow
		}
		if run.verdict == nil {
			return nil, fmt.Errorf("core: the %s runs carry no audit verdict", o.ID)
		}
		out.Reports = append(out.Reports, run.verdict)
	}
	return out, nil
}
