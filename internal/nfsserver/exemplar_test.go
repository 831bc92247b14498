package nfsserver

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/osprofile"
	"repro/internal/sim"
)

// exemplarConfigs covers a light clean run and a lossy overloaded one
// (drops, retransmits, and sheds all exercised).
func exemplarConfigs() map[string]Config {
	return map[string]Config{
		"clean": {Profile: osprofile.Linux128(), Clients: 500, Seed: 11,
			TargetOps: 2000},
		"lossy": {Profile: osprofile.Solaris24(), Clients: 200000, Seed: 17,
			TargetOps: 4000, AttemptBudget: 40000, QueueCap: 64,
			Faults: lossyInjector(0.05, 17)},
	}
}

// Every retained exemplar's phase sum must equal its recorded lifetime
// exactly — the per-request form of the ledger identity — and completed
// exemplars must carry a coherent timestamp chain.
func TestExemplarPhaseSumsExact(t *testing.T) {
	for name, cfg := range exemplarConfigs() {
		t.Run(name, func(t *testing.T) {
			if name == "lossy" {
				cfg.Faults = lossyInjector(0.05, 17)
			}
			s := New(cfg)
			ex := obs.NewExemplars(cfg.Seed, 4, 100*sim.Millisecond)
			s.SetExemplars(ex)
			s.Run()
			wins := ex.Snapshot()
			if len(wins) == 0 {
				t.Fatal("no exemplars retained")
			}
			var completed, shed int
			for _, w := range wins {
				if len(w.Exemplars) > 4 {
					t.Fatalf("window %d retains %d exemplars, want <= 4", w.Window, len(w.Exemplars))
				}
				for _, e := range w.Exemplars {
					if got, want := e.PhaseSum(), e.LatencyNs; got != want {
						t.Fatalf("exemplar %d (%s, shed=%v): phase sum %d != lifetime %d",
							e.ID, e.Class, e.Shed, got, want)
					}
					if e.EndNs-e.IssueNs != e.LatencyNs {
						t.Fatalf("exemplar %d: end-issue %d != latency %d", e.ID, e.EndNs-e.IssueNs, e.LatencyNs)
					}
					if e.Shed {
						shed++
						if e.EnqNs != -1 || e.StartNs != -1 {
							t.Fatalf("shed exemplar %d has service timestamps", e.ID)
						}
						continue
					}
					completed++
					if !(e.IssueNs < e.EnqNs && e.EnqNs <= e.StartNs && e.StartNs < e.EndNs) {
						t.Fatalf("exemplar %d: incoherent timestamps %+v", e.ID, e)
					}
					if e.QueueNs != e.StartNs-e.EnqNs {
						t.Fatalf("exemplar %d: queue phase %d != start-enq %d", e.ID, e.QueueNs, e.StartNs-e.EnqNs)
					}
				}
			}
			if completed == 0 {
				t.Fatal("no completed exemplars retained")
			}
			if name == "lossy" && shed == 0 {
				t.Fatal("lossy run retained no shed exemplars")
			}
		})
	}
}

// Attaching an exemplar reservoir must not perturb the model.
func TestExemplarsDoNotPerturbRun(t *testing.T) {
	cfg := Config{Profile: osprofile.Linux128(), Clients: 500, Seed: 23,
		TargetOps: 2000, Faults: lossyInjector(0.02, 23)}
	plain := New(cfg).Run()
	cfg.Faults = lossyInjector(0.02, 23)
	s := New(cfg)
	s.SetExemplars(obs.NewExemplars(cfg.Seed, 4, 100*sim.Millisecond))
	sampled := s.Run()
	if resultJSON(t, plain) != resultJSON(t, sampled) {
		t.Fatal("exemplar reservoir changed the run's result")
	}
}

// The always-on audit accounting must reconcile exactly with the Result
// and the Ledger: flow balance against the pool free-list and ring
// occupancy, Little's law and the utilization law as exact integer area
// identities, and the per-client counter sums.
func TestFactsReconcileWithResult(t *testing.T) {
	for name, cfg := range exemplarConfigs() {
		t.Run(name, func(t *testing.T) {
			if name == "lossy" {
				cfg.Faults = lossyInjector(0.05, 17)
			}
			s := New(cfg)
			r := s.Run()
			f := s.Facts()

			inflight := uint64(f.PoolCap - f.PoolFree)
			if r.Arrivals != r.Completed+r.Shed+inflight {
				t.Fatalf("flow balance: arrivals %d != completed %d + shed %d + inflight %d",
					r.Arrivals, r.Completed, r.Shed, inflight)
			}
			if inflight != uint64(f.InSystem+f.RingPending) {
				t.Fatalf("pool occupancy %d != in-system %d + ring-pending %d",
					inflight, f.InSystem, f.RingPending)
			}
			if r.Attempts != r.Arrivals+f.Resends {
				t.Fatalf("attempts %d != arrivals %d + resends %d", r.Attempts, r.Arrivals, f.Resends)
			}
			led := r.Ledger
			if residence := int64(led.QueueWait + led.CPU + led.DiskWait + led.DiskTime); f.SysAreaNs != residence+f.SysResidualNs {
				t.Fatalf("Little's law: ∫N dt = %d, residence %d + residual %d = %d",
					f.SysAreaNs, residence, f.SysResidualNs, residence+f.SysResidualNs)
			}
			if f.BusyAreaNs != int64(r.Busy)+f.BusyResidualNs {
				t.Fatalf("utilization law: ∫busy dt = %d, Busy %d + residual %d",
					f.BusyAreaNs, r.Busy, f.BusyResidualNs)
			}
			if int64(led.CPU+led.DiskWait+led.DiskTime) != int64(r.Busy) {
				t.Fatalf("service decomposition: cpu+diskwait+disk %d != Busy %d",
					led.CPU+led.DiskWait+led.DiskTime, r.Busy)
			}
			if f.ClIssued != r.Arrivals || f.ClDone != r.Completed || f.ClRetrans != r.Retransmits {
				t.Fatalf("client balance (%d,%d,%d) != result (%d,%d,%d)",
					f.ClIssued, f.ClDone, f.ClRetrans, r.Arrivals, r.Completed, r.Retransmits)
			}
			// Facts is idempotent.
			if g := s.Facts(); g != f {
				t.Fatalf("Facts not idempotent: %+v then %+v", f, g)
			}
		})
	}
}

// The nfs.op_inflight series' window deltas must sum to the requests
// still in flight at the end of the run — the windowed flow balance.
func TestOpInflightSeriesBalances(t *testing.T) {
	cfg := exemplarConfigs()["lossy"]
	cfg.Faults = lossyInjector(0.05, 17)
	s := New(cfg)
	smp := obs.NewSampler(10 * sim.Millisecond)
	s.SetSampler(smp)
	r := s.Run()
	f := s.Facts()
	ts := smp.Snapshot(sim.Time(r.Elapsed))
	got, ok := ts.CounterTotal("nfs.op_inflight")
	if !ok {
		t.Fatal("nfs.op_inflight series missing")
	}
	if want := int64(f.PoolCap - f.PoolFree); got != want {
		t.Fatalf("op_inflight windows sum to %d, pool says %d in flight", got, want)
	}
}
