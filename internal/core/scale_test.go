package core

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/fault"
	"repro/internal/osprofile"
)

// TestScaleDeterminismTenThousandClients is the scale-out determinism
// regression: at 10^4 clients, the S1/S2 probes — histograms, phase
// ledgers, spans — are bit-identical between -j 1 and -j 8, clean and
// under 5% RPC loss. Runs under -race in `make check` via the race
// target.
func TestScaleDeterminismTenThousandClients(t *testing.T) {
	cfg := DefaultConfig()
	for _, tc := range []struct {
		name string
		opts ObserveOpts
	}{
		{"clean", ObserveOpts{Clients: 10_000}},
		{"lossy", ObserveOpts{Clients: 10_000,
			Faults: &fault.Plan{Net: fault.NetFaults{UDPLossProb: 0.05}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s1, err := NewRunner(1).Observe(cfg, []string{"S1", "S2"}, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			s8, err := NewRunner(8).Observe(cfg, []string{"S1", "S2"}, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			sameMetrics(t, s1, s8)
			if !bytes.Equal(chromeBytes(t, s1), chromeBytes(t, s8)) {
				t.Fatal("scale trace bytes differ between -j 1 and -j 8")
			}
			if v := counterSum(s1, "scale.completed"); v == 0 {
				t.Fatalf("scale.completed sums to %v over the runs", v)
			}
			if tc.opts.Faults != nil {
				if v := counterSum(s1, "fault.net.rpc_retransmits"); v == 0 {
					t.Fatalf("fault.net.rpc_retransmits sums to %v: lossy probe saw no loss", v)
				}
				if v := counterSum(s1, "scale.retransmits"); v == 0 {
					t.Fatalf("scale.retransmits sums to %v over the runs", v)
				}
			}
		})
	}
}

// The registry sweeps themselves (which include the 10^4 and 10^6
// points) agree between the direct serial path and the 8-worker pool,
// and the suite cache shares every (personality, clients) server run
// between S1 and S2.
func TestScaleSweepParallelBitIdentical(t *testing.T) {
	cfg := smallConfig()
	exps := []*Experiment{mustLookup(t, "S1"), mustLookup(t, "S2")}
	serial := make([]*Result, len(exps))
	for i, e := range exps {
		serial[i] = e.Run(cfg)
	}
	parallel, _ := NewRunner(8).RunAll(cfg, exps)
	assertResultsIdentical(t, serial, parallel)
}

// A -profiles personality may share a paper personality's name with
// other parameters. The suite cache must not serve it the paper
// personality's server runs: its S2 curves are the same whether or not
// Linux 1.2.8 runs next to it.
func TestScaleCacheKeysByPersonality(t *testing.T) {
	slow := osprofile.Linux128()
	slow.Version = "1.2.8-slowserver"
	slow.NFS.ServerPerRPC *= 20
	s2 := []*Experiment{mustLookup(t, "S2")}
	cfg := smallConfig()
	cfg.Profiles = []*osprofile.Profile{osprofile.Linux128(), slow}
	both, _ := NewRunner(1).RunAll(cfg, s2)
	cfg.Profiles = []*osprofile.Profile{slow}
	alone, _ := NewRunner(1).RunAll(cfg, s2)
	for _, s := range alone[0].Series {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(both[0].FindSeries(s.Label))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs when run next to Linux 1.2.8:\nnext to it: %s\nalone:      %s", s.Label, got, want)
		}
	}
}

// Every S2 percentile curve is pointwise no less than the p50 curve of
// the same personality, and the probes' phase rows sum to their totals
// (the ledger identity surfacing through the observation layer).
func TestScaleObservationLedgerRowsSumToTotal(t *testing.T) {
	cfg := DefaultConfig()
	o, err := observe(cfg, "S1", ObserveOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range o.Runs {
		var sum float64
		for _, row := range run.Rows {
			sum += row.Value
		}
		// The underlying ledger is exact in nanoseconds (asserted in
		// package nfsserver); the µs rows only re-associate floats.
		if diff := sum - run.Total; diff > 1e-6*run.Total || diff < -1e-6*run.Total {
			t.Fatalf("%s: phase rows sum to %v, total is %v", run.Label, sum, run.Total)
		}
		if run.Total == 0 {
			t.Fatalf("%s: zero total", run.Label)
		}
	}
}

// Below saturation, adding nfsd slots never lowers served throughput:
// for each paper personality at 10 and 100 clients, throughput is
// non-decreasing as nfsd goes 1, 2, 4, 8, 16, at seeds 1-8. (At 10^3
// clients and above the server saturates, and the relation does not
// hold: FreeBSD at seed 1 serves 61.08 ops/s on 2 slots, 59.32 on 4.)
func TestScaleThroughputNonDecreasingInNfsd(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		cfg := DefaultConfig()
		cfg.Seed = seed
		for _, p := range osprofile.Paper() {
			for _, clients := range []int{10, 100} {
				prev := 0.0
				for nfsd := 1; nfsd <= 16; nfsd *= 2 {
					got := ScaleRun(cfg, p, clients, nfsd, nil).Throughput()
					if got < prev {
						t.Errorf("seed %d, %s, %d clients: %.2f ops/s at nfsd %d < %.2f at nfsd %d",
							seed, p, clients, got, nfsd, prev, nfsd/2)
					}
					prev = got
				}
			}
		}
	}
}

// Below half load, RPC loss never lowers the tail: at clean utilization
// under 50 %, p99 is non-decreasing as udp_loss_prob goes 0, 0.01, 0.02,
// 0.05, 0.10, with examples/scale-lossy.json's RTO and backoff. Checked
// for every paper personality at 10 clients and Linux 1.2.8 at 100, at
// seeds 1-8. (Near saturation it fails: loss delays some requests by a
// timeout and thins the queue the others wait in. Solaris 2.4 at seed 2
// and 100 clients, 84 % busy, has p99 1,409.3 ms clean, 1,375.7 ms at
// 1 % loss.)
func TestScaleP99NonDecreasingInLossBelowHalfLoad(t *testing.T) {
	data, err := os.ReadFile("../../examples/scale-lossy.json")
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := fault.Load(data)
	if err != nil {
		t.Fatal(err)
	}
	type point struct {
		p       *osprofile.Profile
		clients int
	}
	var points []point
	for _, p := range osprofile.Paper() {
		points = append(points, point{p, 10})
	}
	points = append(points, point{osprofile.Linux128(), 100})
	for seed := uint64(1); seed <= 8; seed++ {
		cfg := DefaultConfig()
		cfg.Seed = seed
		for _, pt := range points {
			clean := ScaleRun(cfg, pt.p, pt.clients, ScaleNfsd, nil)
			if u := clean.Utilization(); u >= 0.5 {
				t.Fatalf("seed %d, %s, %d clients: clean utilization %.2f, not below half load",
					seed, pt.p, pt.clients, u)
			}
			prevLoss, prev := 0.0, clean.Quantile(0.99)
			for _, loss := range []float64{0.01, 0.02, 0.05, 0.10} {
				plan := *lossy
				plan.Net.UDPLossProb = loss
				got := ScaleRun(cfg, pt.p, pt.clients, ScaleNfsd, &plan).Quantile(0.99)
				if got < prev {
					t.Errorf("seed %d, %s, %d clients: p99 %v at %.0f%% loss < %v at %.0f%%",
						seed, pt.p, pt.clients, got, 100*loss, prev, 100*prevLoss)
				}
				prevLoss, prev = loss, got
			}
		}
	}
}
