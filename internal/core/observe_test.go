package core

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/sim"
)

// sumsToTotal checks the acceptance criterion for metrics tables: the
// phase rows sum to the reported total within float tolerance.
func sumsToTotal(t *testing.T, run ObservedRun) {
	t.Helper()
	var sum float64
	for _, r := range run.Rows {
		sum += r.Value
	}
	tol := 1e-9 * math.Max(1, math.Abs(run.Total))
	if math.Abs(sum-run.Total) > tol {
		t.Errorf("%s: rows sum %.9g != total %.9g (%s)", run.Label, sum, run.Total, run.Unit)
	}
}

func TestObserveProbesAttribution(t *testing.T) {
	cfg := DefaultConfig()
	for _, id := range ObservableIDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			o, err := observe(cfg, id, ObserveOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if o.ID != id || len(o.Runs) == 0 {
				t.Fatalf("observation %q has %d runs", o.ID, len(o.Runs))
			}
			for _, run := range o.Runs {
				if run.Unit == "" || len(run.Rows) == 0 {
					t.Fatalf("%s: empty unit or rows", run.Label)
				}
				if run.Total <= 0 {
					t.Fatalf("%s: non-positive total %g", run.Label, run.Total)
				}
				sumsToTotal(t, run)
			}
		})
	}
}

func TestObserveUnknownID(t *testing.T) {
	if _, err := observe(DefaultConfig(), "F99", ObserveOpts{}); err == nil {
		t.Fatal("expected error for unknown probe id")
	}
	if _, err := observe(DefaultConfig(), "", ObserveOpts{}); err == nil {
		t.Fatal("expected error for empty probe id")
	}
}

func TestObserveTitleFromRegistry(t *testing.T) {
	o, err := observe(DefaultConfig(), "F12", ObserveOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if o.Title == "" || o.Title == "F12" {
		t.Fatalf("expected registry title for F12, got %q", o.Title)
	}
}

// chromeBytes renders a suite's trace processes to Chrome trace-event
// JSON, as the CLI does.
func chromeBytes(t *testing.T, s *SuiteObservation) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WriteChrome(&buf, s.Processes); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// faultedPlan exercises every faultable subsystem at once.
func faultedPlan() *fault.Plan {
	return &fault.Plan{
		Disk:  fault.DiskFaults{LatencySpikeProb: 0.05, TransientErrorProb: 0.02},
		Net:   fault.NetFaults{UDPLossProb: 0.05, TCPSegLossProb: 0.02, AckDelayUs: 200},
		Cache: fault.CacheFaults{PageStealProb: 0.01},
	}
}

// sameMetrics requires two suite observations to hold the same runs,
// run by run, with equal metric snapshots.
func sameMetrics(t *testing.T, a, b *SuiteObservation) {
	t.Helper()
	if len(a.Observations) != len(b.Observations) {
		t.Fatalf("%d observations against %d", len(a.Observations), len(b.Observations))
	}
	for i, oa := range a.Observations {
		ob := b.Observations[i]
		if oa.ID != ob.ID || len(oa.Runs) != len(ob.Runs) {
			t.Fatalf("observation %d: %s with %d runs against %s with %d", i, oa.ID, len(oa.Runs), ob.ID, len(ob.Runs))
		}
		for j, ra := range oa.Runs {
			if rb := ob.Runs[j]; ra.Label != rb.Label || !reflect.DeepEqual(ra.Metrics, rb.Metrics) {
				t.Fatalf("%s run %d: metric snapshots differ:\n%s %v\nagainst\n%s %v",
					oa.ID, j, ra.Label, ra.Metrics, rb.Label, rb.Metrics)
			}
		}
	}
}

// counterSum sums a named counter over a suite's runs.
func counterSum(s *SuiteObservation, name string) float64 {
	var sum float64
	for _, o := range s.Observations {
		for _, run := range o.Runs {
			v, _ := run.Metrics.Get(name)
			sum += v
		}
	}
	return sum
}

// sameObservation requires two suite observations to carry the same
// metrics, run by run, the same Chrome trace bytes and the same folded
// profile exports.
func sameObservation(t *testing.T, a, b *SuiteObservation) {
	t.Helper()
	sameMetrics(t, a, b)
	ca := chromeBytes(t, a)
	if !bytes.Equal(ca, chromeBytes(t, b)) {
		t.Fatal("chrome trace bytes differ")
	}
	if !bytes.HasPrefix(ca, []byte("[")) || len(ca) < 2 {
		t.Fatalf("chrome export does not look like a JSON array: %.40q", ca)
	}
	if !bytes.Equal(profileBytes(t, a), profileBytes(t, b)) {
		t.Fatal("profile exports differ")
	}
}

// TestObserveDeterminismAcrossWorkers is the regression test for the
// suite's central determinism guarantee: span streams, metric snapshots
// and profiles are bit-identical at every worker count. The whole
// observable set at -j 8 fans out per id; a single id at -j 3 fans out
// per personality, as every serve view's request does. Runs under
// -race in `make check` via the race target.
func TestObserveDeterminismAcrossWorkers(t *testing.T) {
	cfg := DefaultConfig()
	cases := []struct {
		name    string
		ids     []string
		opts    ObserveOpts
		workers int
	}{
		{"all", ObservableIDs(), ObserveOpts{}, 8},
		{"F1", []string{"F1"}, ObserveOpts{}, 3},
		{"S1 sampled with exemplars", []string{"S1"}, ObserveOpts{Window: 100 * sim.Millisecond, ExemplarK: 4}, 3},
		{"F12 faulted", []string{"F12"}, ObserveOpts{Faults: faultedPlan()}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial, err := NewRunner(1).Observe(cfg, tc.ids, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := NewRunner(tc.workers).Observe(cfg, tc.ids, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			sameObservation(t, serial, parallel)
		})
	}
}

// The same guarantee holds with a fault plan injected: every fault
// arrival derives from the per-(experiment, personality) RNG fork, never
// from worker scheduling, so a faulted suite is as bit-deterministic as a
// clean one. Runs under -race in `make check` via the race target.
func TestObserveDeterminismAcrossWorkersFaulted(t *testing.T) {
	cfg := DefaultConfig()
	ids := FaultableIDs()
	opts := ObserveOpts{Faults: faultedPlan()}
	s1, err := NewRunner(1).Observe(cfg, ids, opts)
	if err != nil {
		t.Fatal(err)
	}
	s8, err := NewRunner(8).Observe(cfg, ids, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameObservation(t, s1, s8)
	// The injectors actually fired and their counters surfaced.
	if v := counterSum(s1, "fault.net.rpc_retransmits"); v == 0 {
		t.Errorf("fault.net.rpc_retransmits sums to %v over the runs", v)
	}
}

func TestSuiteObservationShape(t *testing.T) {
	ids := []string{"T2", "F12"}
	s, err := NewRunner(2).Observe(DefaultConfig(), ids, ObserveOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Observations) != len(ids) {
		t.Fatalf("got %d observations, want %d", len(s.Observations), len(ids))
	}
	var wantProcs int
	for _, o := range s.Observations {
		wantProcs += len(o.Runs)
	}
	if len(s.Processes) != wantProcs {
		t.Fatalf("got %d processes, want %d", len(s.Processes), wantProcs)
	}
	// Processes follow input order: T2's runs before F12's.
	if s.Observations[0].ID != "T2" || s.Observations[1].ID != "F12" {
		t.Fatalf("observation order not input order: %s, %s",
			s.Observations[0].ID, s.Observations[1].ID)
	}
	// Kernel and fs attribution: every run carries its probe's snapshot.
	for i, name := range []string{"kernel.phase_us.syscall", "fs.phase_us.vfs"} {
		for _, run := range s.Observations[i].Runs {
			if _, ok := run.Metrics.Get(name); !ok {
				t.Errorf("%s %s: metrics missing %s", ids[i], run.Label, name)
			}
		}
	}
	// T2's and F12's probes each fan three personalities out on the pool
	// that Runner.Observe lends them.
	cfg := DefaultConfig()
	cfg.pool = newWorkPool(2)
	for _, id := range ids {
		if _, err := observe(cfg, id, ObserveOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := cfg.pool.innerJobs.Load(); got != 6 {
		t.Fatalf("the probes scheduled %d inner jobs, want 6", got)
	}
}

func TestObserveErrorPropagates(t *testing.T) {
	_, err := NewRunner(4).Observe(DefaultConfig(), []string{"T2", "nope"}, ObserveOpts{})
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("expected error naming the bad id, got %v", err)
	}
}

// TestProcessesExportOrder pins the trace's process order: ids in input
// order, each id's runs in profile order, each run's model capture
// followed by its per-request exemplar trace when it has one.
func TestProcessesExportOrder(t *testing.T) {
	obsv, err := NewRunner(2).ObserveRuns(DefaultConfig(), []string{"T2", "S1"}, ObserveOpts{ExemplarK: 2})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, o := range obsv {
		for _, run := range o.Runs {
			want = append(want, run.Process.Name)
			if reqs := run.Requests(); reqs != nil {
				want = append(want, reqs.Name)
			}
		}
	}
	var got []string
	for _, p := range Processes(obsv) {
		got = append(got, p.Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("processes %q, want %q", got, want)
	}
	// T2 has three runs and no reservoir; S1's three runs each add their
	// request trace after the capture.
	if len(got) != 9 || !strings.HasSuffix(got[4], " requests") || strings.HasSuffix(got[3], " requests") {
		t.Fatalf("processes %q: want T2's three captures, then each S1 capture followed by its requests", got)
	}
}

// foldedProfile folds a suite's observations and merges their runs'
// profiles, as the profile view does.
func foldedProfile(s *SuiteObservation) *profile.Profile {
	for _, o := range s.Observations {
		o.Fold()
	}
	return MergeProfiles(s.Observations)
}

// profileBytes renders every profile export of a suite, concatenated.
func profileBytes(t *testing.T, s *SuiteObservation) []byte {
	t.Helper()
	prof := foldedProfile(s)
	var b bytes.Buffer
	if err := prof.WriteFolded(&b); err != nil {
		t.Fatal(err)
	}
	if err := prof.WriteTop(&b, 0); err != nil {
		t.Fatal(err)
	}
	if err := prof.WritePprof(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestSuiteProfileDeterministicAcrossWorkers(t *testing.T) {
	cfg := DefaultConfig()
	ids := ObservableIDs()
	s1, err := NewRunner(1).Observe(cfg, ids, ObserveOpts{})
	if err != nil {
		t.Fatal(err)
	}
	s8, err := NewRunner(8).Observe(cfg, ids, ObserveOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if foldedProfile(s1).TotalNs() == 0 {
		t.Fatal("suite profile is empty")
	}
	if !bytes.Equal(profileBytes(t, s1), profileBytes(t, s8)) {
		t.Fatal("profile exports differ between -j 1 and -j 8")
	}
}

// TestSuiteProfileMergesRunFolds checks MergeProfiles: nil while a run
// is unfolded, then the sum of the runs' folds, stack by stack.
func TestSuiteProfileMergesRunFolds(t *testing.T) {
	s, err := NewRunner(2).Observe(DefaultConfig(), []string{"T2", "F12"}, ObserveOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if MergeProfiles(s.Observations) != nil {
		t.Fatal("merged the profiles of unfolded runs")
	}
	s.Observations[0].Fold()
	if MergeProfiles(s.Observations) != nil {
		t.Fatal("merged the profiles while F12's runs are unfolded")
	}
	s.Observations[1].Fold()
	var want int64
	for _, o := range s.Observations {
		for _, run := range o.Runs {
			if run.Profile == nil {
				t.Fatalf("%s/%s: run profile not folded", o.ID, run.Label)
			}
			want += run.Profile.TotalNs()
		}
	}
	merged := MergeProfiles(s.Observations)
	if got := merged.TotalNs(); got != want || want == 0 {
		t.Fatalf("suite profile total %d != sum of run profiles %d", got, want)
	}
	// Merging the runs' folds is folding all their processes at once.
	var got, all bytes.Buffer
	if err := merged.WriteFolded(&got); err != nil {
		t.Fatal(err)
	}
	if err := profile.Fold(s.Processes...).WriteFolded(&all); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), all.Bytes()) {
		t.Fatal("merged run folds differ from one fold of every process")
	}
}

// BenchmarkObserve is the observe layer's package benchmark: one id
// through Runner.Observe, the way each serve view requests it, on one
// worker and on two, where the probe's personalities share the pool.
func BenchmarkObserve(b *testing.B) {
	cfg := DefaultConfig()
	for _, id := range []string{"F1", "S1", "F12"} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/j%d", id, workers), func(b *testing.B) {
				r := NewRunner(workers)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := r.Observe(cfg, []string{id}, ObserveOpts{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
