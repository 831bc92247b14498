package core

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
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

// sameObservation requires two suite observations to carry the same
// metrics (apart from the runner's wall-clock self-metrics), the same
// Chrome trace bytes and the same folded profile exports.
func sameObservation(t *testing.T, a, b *SuiteObservation) {
	t.Helper()
	ma, mb := a.Metrics.ExcludePrefix("runner."), b.Metrics.ExcludePrefix("runner.")
	if !reflect.DeepEqual(ma, mb) {
		t.Fatalf("metric snapshots differ:\n%s\nagainst\n%s", ma, mb)
	}
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
	if v, ok := s1.Metrics.Get("fault.net.rpc_retransmits"); !ok || v == 0 {
		t.Errorf("fault.net.rpc_retransmits = %v, %v", v, ok)
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
	if _, ok := s.Metrics.Get("runner.jobs"); !ok {
		t.Fatal("suite metrics missing runner.jobs self-metric")
	}
	if v, ok := s.Metrics.Get("runner.workers"); !ok || v != 2 {
		t.Fatalf("runner.workers = %v, %v; want 2, true", v, ok)
	}
	// T2's and F12's probes each fan three personalities out on the pool.
	if v, ok := s.Metrics.Get("runner.inner_jobs"); !ok || v != 6 {
		t.Fatalf("runner.inner_jobs = %v, %v; want 6, true", v, ok)
	}
	// Kernel and fs attribution from the probes must have been merged in.
	for _, name := range []string{"kernel.phase_us.syscall", "fs.phase_us.vfs"} {
		if _, ok := s.Metrics.Get(name); !ok {
			t.Errorf("suite metrics missing %s", name)
		}
	}
}

// TestSuiteSumsExemplarDrops checks runner.exemplars_dropped against the
// runs Suite merges: with one exemplar kept per window, most candidates
// are evicted, and the suite counter must be the sum of every run's.
func TestSuiteSumsExemplarDrops(t *testing.T) {
	s, err := NewRunner(2).Observe(DefaultConfig(), []string{"S1"}, ObserveOpts{ExemplarK: 1})
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, o := range s.Observations {
		for _, run := range o.Runs {
			want += run.ExemplarDrops
		}
	}
	if got, ok := s.Metrics.Get("runner.exemplars_dropped"); !ok || want <= 0 || got != float64(want) {
		t.Fatalf("runner.exemplars_dropped = %v, %v; want the runs' positive sum %d", got, ok, want)
	}
}

func TestObserveErrorPropagates(t *testing.T) {
	_, err := NewRunner(4).Observe(DefaultConfig(), []string{"T2", "nope"}, ObserveOpts{})
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("expected error naming the bad id, got %v", err)
	}
}

func TestRunStatsFoldMetrics(t *testing.T) {
	st := &RunStats{
		Workers:    4,
		Jobs:       3,
		InnerJobs:  7,
		MemoHits:   10,
		MemoMisses: 5,
		Wall:       2 * time.Millisecond,
		Experiments: []ExperimentTiming{
			{ID: "a", Wall: time.Millisecond},
			{ID: "b", Wall: time.Millisecond},
			{ID: "c", Wall: 2 * time.Millisecond},
		},
	}
	reg := obs.NewRegistry()
	st.FoldMetrics(reg, "runner.")
	snap := reg.Snapshot()
	for name, want := range map[string]float64{
		"runner.workers":     4,
		"runner.jobs":        3,
		"runner.inner_jobs":  7,
		"runner.memo_hits":   10,
		"runner.memo_misses": 5,
		"runner.wall_us":     2000,
		// busy 4ms over 4 workers × 2ms wall = 50%.
		"runner.worker_utilization_pct": 50,
	} {
		if v, ok := snap.Get(name); !ok || math.Abs(v-want) > 1e-9 {
			t.Errorf("%s = %v, %v; want %v", name, v, ok, want)
		}
	}
}

// profileBytes renders every profile export of a suite, concatenated.
func profileBytes(t *testing.T, s *SuiteObservation) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := s.Profile.WriteFolded(&b); err != nil {
		t.Fatal(err)
	}
	if err := s.Profile.WriteTop(&b, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Profile.WritePprof(&b); err != nil {
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
	if s1.Profile.TotalNs() == 0 {
		t.Fatal("suite profile is empty")
	}
	if !bytes.Equal(profileBytes(t, s1), profileBytes(t, s8)) {
		t.Fatal("profile exports differ between -j 1 and -j 8")
	}
}

func TestSuiteProfileMergesRunFolds(t *testing.T) {
	s, err := NewRunner(2).Observe(DefaultConfig(), []string{"T2", "F12"}, ObserveOpts{})
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, o := range s.Observations {
		for _, run := range o.Runs {
			if run.Profile == nil {
				t.Fatalf("%s/%s: run profile not folded", o.ID, run.Label)
			}
			want += run.Profile.TotalNs()
		}
	}
	if got := s.Profile.TotalNs(); got != want {
		t.Fatalf("suite profile total %d != sum of run profiles %d", got, want)
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
