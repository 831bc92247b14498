package validate

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

func TestAllClaimsPassOnDefaultConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("full claim sweep is a few seconds")
	}
	results, _ := core.NewRunner(0).RunAll(core.DefaultConfig(), Exhibits())
	for _, o := range Evaluate(results) {
		if !o.Passed() {
			t.Errorf("%s (%s) failed: %v\n  claim: %s",
				o.Claim.ID, o.Claim.Exhibit, o.Err, o.Claim.Statement)
		}
	}
}

// TestClaimsHoldAcrossSeeds checks that no claim holds only by the luck
// of seed 1's noise draws: every claim must pass at seeds 1-8.
func TestClaimsHoldAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("eight claim sweeps")
	}
	runner := core.NewRunner(0)
	for seed := uint64(1); seed <= 8; seed++ {
		cfg := core.DefaultConfig()
		cfg.Seed = seed
		results, _ := runner.RunAll(cfg, Exhibits())
		for _, o := range Evaluate(results) {
			if !o.Passed() {
				t.Errorf("seed %d: %s (%s) failed: %v", seed, o.Claim.ID, o.Claim.Exhibit, o.Err)
			}
		}
	}
}

// Exhibits is exactly the set of exhibits the claims cite, and Evaluate
// fails a claim whose exhibit has no result instead of running it.
func TestEvaluateNeedsExhibitResults(t *testing.T) {
	cited := map[string]bool{}
	for _, c := range Claims() {
		cited[c.Exhibit] = true
	}
	exps := Exhibits()
	if len(exps) != len(cited) {
		t.Fatalf("Exhibits() has %d experiments, claims cite %d", len(exps), len(cited))
	}
	for _, e := range exps {
		if !cited[e.ID] {
			t.Errorf("Exhibits() includes uncited %s", e.ID)
		}
	}
	outcomes := Evaluate(nil)
	if len(outcomes) != len(Claims()) {
		t.Fatalf("Evaluate(nil) gave %d outcomes, want %d", len(outcomes), len(Claims()))
	}
	for _, o := range outcomes {
		if o.Passed() || !strings.Contains(o.Err.Error(), "no result for exhibit") {
			t.Errorf("%s: Evaluate(nil) = %v, want a missing-result error", o.Claim.ID, o.Err)
		}
	}
}

func TestClaimsWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Claims() {
		if c.ID == "" || c.Statement == "" || c.Check == nil {
			t.Errorf("claim %+v incomplete", c.ID)
		}
		if seen[c.ID] {
			t.Errorf("duplicate claim id %s", c.ID)
		}
		seen[c.ID] = true
		if _, ok := core.Lookup(c.Exhibit); !ok {
			t.Errorf("claim %s references unknown exhibit %s", c.ID, c.Exhibit)
		}
		if !strings.Contains(c.Statement, "§") {
			t.Errorf("claim %s does not cite a paper section: %q", c.ID, c.Statement)
		}
	}
	if len(seen) < 25 {
		t.Errorf("only %d claims encoded; the paper makes more testable statements", len(seen))
	}
}

func TestClaimsCoverEveryPaperExhibit(t *testing.T) {
	covered := map[string]bool{}
	for _, c := range Claims() {
		covered[c.Exhibit] = true
	}
	// Every table and the load-bearing figures must have at least one
	// claim. (F4, F6, F7 are explicitly "similar to" exhibits whose
	// claims live on F3/F6's partners.)
	for _, id := range []string{"T2", "T3", "T4", "T5", "T6", "T7",
		"F1", "F2", "F3", "F5", "F8", "F9", "F10", "F11", "F12", "F13"} {
		if !covered[id] {
			t.Errorf("no claim covers exhibit %s", id)
		}
	}
}

func TestClaimDetectsViolation(t *testing.T) {
	// Feed C01 a doctored result where Solaris is fastest; it must fail.
	bad := &core.Result{
		ID: "T2", Kind: core.Table,
		Series: []core.Series{
			{Label: "Linux 1.2.8", Samples: []*stats.Sample{sampleOf(3.0)}},
			{Label: "FreeBSD 2.0.5R", Samples: []*stats.Sample{sampleOf(2.6)}},
			{Label: "Solaris 2.4", Samples: []*stats.Sample{sampleOf(1.0)}},
		},
	}
	c := Claims()[0]
	if c.Check(bad) == nil {
		t.Fatal("C01 accepted an inverted ordering")
	}
}

func TestClaimReportsMissingSeries(t *testing.T) {
	empty := &core.Result{ID: "T2", Kind: core.Table}
	for _, c := range Claims()[:1] {
		if c.Check(empty) == nil {
			t.Errorf("%s accepted an empty result", c.ID)
		}
	}
}

func sampleOf(v float64) *stats.Sample {
	s := &stats.Sample{}
	s.Add(v)
	return s
}

func TestOutcomePassed(t *testing.T) {
	o := Outcome{}
	if !o.Passed() {
		t.Fatal("nil error should pass")
	}
}
