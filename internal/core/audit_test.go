package core

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/osprofile"
)

// The exhibited scale probes must audit clean — every queueing-law
// invariant exact — for both experiments, clean and under wire loss.
func TestAuditScaleProbesClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full audit sweep")
	}
	cfg := Config{Seed: 1, Profiles: osprofile.Paper()}
	lossy := &fault.Plan{}
	lossy.Net.UDPLossProb = 0.05
	for _, plan := range []*fault.Plan{nil, lossy} {
		for _, id := range AuditableIDs() {
			a, err := Audit(cfg, id, ObserveOpts{Clients: 1000, Faults: plan})
			if err != nil {
				t.Fatalf("Audit(%s): %v", id, err)
			}
			// The SMP audit reports one row per personality × lock kind;
			// the scale probes one per personality.
			want := len(osprofile.Paper())
			if id == "L1" {
				want = 2 * len(osprofile.Paper())
			}
			if len(a.Reports) != want {
				t.Fatalf("%s: %d reports, want %d", id, len(a.Reports), want)
			}
			for _, rep := range a.Reports {
				if !rep.OK() {
					j, _ := json.MarshalIndent(rep.Violations, "", "  ")
					t.Fatalf("%s %s (faults=%v) failed %d/%d checks:\n%s",
						id, rep.System, plan != nil, rep.Failed, rep.Evaluated, j)
				}
				if rep.Evaluated < 20 {
					t.Fatalf("%s %s: only %d checks evaluated", id, rep.System, rep.Evaluated)
				}
			}
		}
	}
	if _, err := Audit(cfg, "T2", ObserveOpts{}); err == nil {
		t.Fatal("Audit(T2) should fail: not auditable")
	}
}

// Exemplar tracing must not change the probe's result rows, metrics or
// model trace — only add exemplars, a per-request trace process, and the
// latency histogram. The nfsd tracks must carry exactly the untraced
// events: the request tracks may not push them out of the ring.
func TestObserveExemplarsAdditive(t *testing.T) {
	cfg := Config{Seed: 1, Profiles: osprofile.Paper()}
	plain, err := observe(cfg, "S1", ObserveOpts{Clients: 1000})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := observe(cfg, "S1", ObserveOpts{Clients: 1000, ExemplarK: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range plain.Runs {
		tr := traced.Runs[i]
		pm, _ := json.Marshal(pr.Metrics)
		tm, _ := json.Marshal(tr.Metrics)
		if string(pm) != string(tm) {
			t.Fatalf("%s: exemplar tracing changed the metric snapshot", pr.Label)
		}
		if !reflect.DeepEqual(pr.Process, tr.Process) {
			t.Fatalf("%s: exemplar tracing changed the model trace: %d tracks, %d events, %d dropped; untraced %d, %d, %d",
				pr.Label, len(tr.Process.Tracks), len(tr.Process.Events), tr.Process.Dropped,
				len(pr.Process.Tracks), len(pr.Process.Events), pr.Process.Dropped)
		}
		if len(pr.Exemplars) != 0 || pr.Requests() != nil {
			t.Fatalf("%s: exemplars or request tracks present with ExemplarK=0", pr.Label)
		}
		if len(tr.Exemplars) == 0 {
			t.Fatalf("%s: no exemplars with ExemplarK=4", pr.Label)
		}
		for _, w := range tr.Exemplars {
			if len(w.Exemplars) > 4 {
				t.Fatalf("window %d holds %d exemplars, want <= 4", w.Window, len(w.Exemplars))
			}
		}
		reqs := 0
		if proc := tr.Requests(); proc != nil {
			for _, name := range proc.Tracks {
				if strings.HasPrefix(name, "req ") {
					reqs++
				}
			}
		}
		if reqs == 0 {
			t.Fatalf("%s: no per-request tracks with exemplar tracing on", pr.Label)
		}
		if tr.LatencyHist == nil || tr.LatencyHist.N() == 0 {
			t.Fatal("latency histogram missing from scale probe")
		}
	}
}

// The request tracks are rendered once per observed run, when first
// read, and every projection that keeps them shares that rendering; a
// projection without a reservoir has none.
func TestRequestTracksRenderedOnce(t *testing.T) {
	o, err := observe(DefaultConfig(), "S1", ObserveOpts{ExemplarK: 4})
	if err != nil {
		t.Fatal(err)
	}
	traced := ObserveOpts{ExemplarK: 4}
	a, b := o.Project(traced), o.Project(traced)
	for i := range o.Runs {
		first := a.Runs[i].Requests()
		if first == nil || first != b.Runs[i].Requests() || first != o.Runs[i].Requests() {
			t.Fatalf("%s: request tracks %p, %p and %p; want one shared rendering",
				o.Runs[i].Label, first, b.Runs[i].Requests(), o.Runs[i].Requests())
		}
		if o.Project(ObserveOpts{}).Runs[i].Requests() != nil {
			t.Fatalf("%s: request tracks kept by a projection without exemplars", o.Runs[i].Label)
		}
	}
}

// BenchmarkAudit is the audit layer's package benchmark: core.Audit on
// one worker (no pool), for S1's queueing laws at 1,000 clients and for
// L1's per-CPU ledgers and lock flow balance.
func BenchmarkAudit(b *testing.B) {
	cfg := DefaultConfig()
	for _, id := range []string{"S1", "L1"} {
		b.Run(id, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Audit(cfg, id, ObserveOpts{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
