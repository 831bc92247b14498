package nfsserver

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/osprofile"
	"repro/internal/sim"
)

// The sampler's per-window deltas must reconcile exactly with the
// end-of-run Result: windows are a decomposition of the run, not an
// approximation of it. A lossy overloaded point exercises every counted
// path (drops, sheds, retransmits) at once.
func TestSamplerReconcilesWithResult(t *testing.T) {
	s := New(Config{Profile: osprofile.Solaris24(), Clients: 200000, Seed: 17,
		TargetOps: 4000, AttemptBudget: 40000, QueueCap: 64,
		Faults: lossyInjector(0.05, 17)})
	smp := obs.NewSampler(10 * sim.Millisecond)
	s.SetSampler(smp)
	r := s.Run()
	ts := smp.Snapshot(sim.Time(r.Elapsed))

	for _, tc := range []struct {
		name string
		want int64
	}{
		{"nfs.arrivals", int64(r.Arrivals)},
		{"nfs.completed", int64(r.Completed)},
		{"nfs.queue_drops", int64(r.QueueDrops)},
		{"nfs.retransmits", int64(r.Retransmits)},
		{"nfs.shed", int64(r.Shed)},
		{"nfs.busy_ns", int64(r.Busy)},
		{"fault.rpc_drops", int64(r.Retransmits)},
	} {
		got, ok := ts.CounterTotal(tc.name)
		if !ok {
			t.Fatalf("series %s missing", tc.name)
		}
		if got != tc.want {
			t.Errorf("%s windows sum to %d, result says %d", tc.name, got, tc.want)
		}
	}
	if r.QueueDrops == 0 || r.Retransmits == 0 || r.Shed == 0 {
		t.Fatalf("config failed to exercise drops/retransmits/sheds: %+v", r)
	}

	var hist *obs.HistSeries
	for i := range ts.Hists {
		if ts.Hists[i].Name == "nfs.latency_ns" {
			hist = &ts.Hists[i]
		}
	}
	if hist == nil {
		t.Fatal("nfs.latency_ns series missing")
	}
	var n uint64
	var sum int64
	for _, w := range hist.Windows {
		n += w.N
		sum += w.Sum
	}
	if n != r.Hist.N() || sum != r.Hist.Sum() {
		t.Fatalf("latency windows n=%d sum=%d, histogram n=%d sum=%d",
			n, sum, r.Hist.N(), r.Hist.Sum())
	}
}

// Attaching a sampler must not perturb the model: same Config, same
// Result bytes, sampled or not.
func TestSamplerDoesNotPerturbRun(t *testing.T) {
	cfg := Config{Profile: osprofile.Linux128(), Clients: 500, Seed: 23,
		TargetOps: 2000, Faults: lossyInjector(0.02, 23)}
	plain := New(cfg).Run()
	cfg.Faults = lossyInjector(0.02, 23)
	s := New(cfg)
	s.SetSampler(obs.NewSampler(sim.Millisecond))
	sampled := s.Run()
	if resultJSON(t, plain) != resultJSON(t, sampled) {
		t.Fatal("sampler changed the run's result")
	}
}
