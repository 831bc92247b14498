package nfsserver

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/fault"
	"repro/internal/osprofile"
	"repro/internal/sim"
)

func lossyInjector(prob float64, seed uint64) *fault.NetInjector {
	plan := &fault.Plan{}
	plan.Net.UDPLossProb = prob
	return fault.New(plan, sim.NewRNG(seed)).Net
}

func resultJSON(t *testing.T, r *Result) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestRunDeterministic(t *testing.T) {
	for _, clients := range []int{10, 1000} {
		cfg := Config{Profile: osprofile.FreeBSD205(), Clients: clients, Seed: 42, TargetOps: 2000}
		a := resultJSON(t, New(cfg).Run())
		b := resultJSON(t, New(cfg).Run())
		if a != b {
			t.Fatalf("%d clients: two identical runs differ:\n%s\n%s", clients, a, b)
		}
	}
}

// The model's conservation law: the per-phase ledger sums exactly — in
// integer nanoseconds — to the histogram's total latency, and the
// service phases sum exactly to nfsd busy time.
func TestLedgerSumsToLatency(t *testing.T) {
	for _, p := range osprofile.Paper() {
		for _, tc := range []struct {
			clients int
			loss    float64
		}{
			{10, 0}, {1000, 0}, {1000, 0.05}, {100000, 0.05},
		} {
			cfg := Config{Profile: p, Clients: tc.clients, Seed: 7, TargetOps: 3000, AttemptBudget: 30000}
			if tc.loss > 0 {
				cfg.Faults = lossyInjector(tc.loss, 7)
			}
			r := New(cfg).Run()
			if r.Completed == 0 {
				t.Fatalf("%s/%d: no completions", p.Name, tc.clients)
			}
			if got, want := r.Ledger.Sum(), sim.Duration(r.Hist.Sum()); got != want {
				t.Fatalf("%s/%d clients/loss %v: ledger sum %d != latency sum %d",
					p.Name, tc.clients, tc.loss, got, want)
			}
			if got, want := r.Ledger.CPU+r.Ledger.DiskWait+r.Ledger.DiskTime, r.Busy; got != want {
				t.Fatalf("%s/%d clients: service phases %d != busy %d", p.Name, tc.clients, got, want)
			}
		}
	}
}

func TestPerClientCountersBalance(t *testing.T) {
	inj := lossyInjector(0.05, 11)
	s := New(Config{Profile: osprofile.Solaris24(), Clients: 5000, Seed: 11,
		TargetOps: 3000, AttemptBudget: 30000, Faults: inj})
	r := s.Run()
	issued, done, retrans := s.ClientBalance()
	if issued != r.Arrivals {
		t.Fatalf("per-client issued %d != arrivals %d", issued, r.Arrivals)
	}
	if done != r.Completed {
		t.Fatalf("per-client completed %d != completions %d", done, r.Completed)
	}
	if retrans != r.Retransmits {
		t.Fatalf("per-client retransmits %d != aggregate %d", retrans, r.Retransmits)
	}
	// The injector's own ledger agrees: every wire loss was attributed
	// to exactly one client.
	if retrans != inj.RPCRetransmits {
		t.Fatalf("per-client retransmits %d != injector's %d", retrans, inj.RPCRetransmits)
	}
	if retrans == 0 {
		t.Fatal("5% loss over 30000 attempts produced no retransmits")
	}
}

// Lossy clients degrade the latency curves; they must not collapse the
// run. With 5% wire loss the sweep still completes, still serves
// operations, and the tail is no better than the lossless tail.
func TestLossyDegradesGracefully(t *testing.T) {
	// An unsaturated, in-cache point: latency is CPU plus wire, so wire
	// loss can only add backoff waits. (At a saturated point shedding 5%
	// of the load can legitimately *improve* the tail.)
	base := Config{Profile: osprofile.Linux128(), Clients: 300, Seed: 3,
		TargetOps: 3000, AttemptBudget: 30000}
	clean := New(base).Run()
	lossy := base
	lossy.Faults = lossyInjector(0.05, 3)
	got := New(lossy).Run()
	if got.Completed == 0 {
		t.Fatal("lossy run served nothing")
	}
	if got.Retransmits == 0 {
		t.Fatal("lossy run recorded no retransmits")
	}
	if got.Quantile(0.99) < clean.Quantile(0.99) {
		t.Fatalf("5%% loss improved p99: %v < %v", got.Quantile(0.99), clean.Quantile(0.99))
	}
	if got.Ledger.RTO == 0 {
		t.Fatal("lossy run charged no RTO wait")
	}
}

// The write-commit policy differentiates the personalities: at a load
// where the buffer cache still absorbs every read, an asynchronous
// server (Linux 1.2.8) touches the disk for nothing, while a
// spec-compliant synchronous server commits every write.
func TestSyncWritePolicySeparatesPersonalities(t *testing.T) {
	cfg := Config{Clients: 200, Seed: 5, TargetOps: 2000}
	cfg.Profile = osprofile.Linux128()
	linux := New(cfg).Run()
	cfg.Profile = osprofile.Solaris24()
	solaris := New(cfg).Run()
	if linux.Ledger.DiskTime != 0 {
		t.Fatalf("async Linux server paid %v of disk time at an in-cache load", linux.Ledger.DiskTime)
	}
	if solaris.Ledger.DiskTime == 0 {
		t.Fatal("synchronous Solaris server paid no disk time for writes")
	}
	if solaris.Quantile(0.5) <= linux.Quantile(0.5) {
		t.Fatalf("sync p50 %v not above async p50 %v", solaris.Quantile(0.5), linux.Quantile(0.5))
	}
}

func TestQueueOverloadDropsAndSheds(t *testing.T) {
	r := New(Config{Profile: osprofile.Solaris24(), Clients: 1000000, Seed: 9,
		TargetOps: 20000, AttemptBudget: 50000}).Run()
	if r.QueueDrops == 0 {
		t.Fatal("a million clients never overflowed a 1024-deep queue")
	}
	if r.Shed == 0 {
		t.Fatal("overload shed nothing despite the retry cap")
	}
	if r.Completed == 0 {
		t.Fatal("overloaded server completed nothing")
	}
	if r.Attempts > 50000+uint64(maxSendsPerOp) {
		t.Fatalf("attempt budget not honoured: %d attempts", r.Attempts)
	}
}

// The hot path must not allocate in steady state: after warm-up (event
// heap, idle/free stacks at capacity) the remainder of a run performs
// a bounded, load-independent number of heap allocations.
func TestSteadyStateAllocFree(t *testing.T) {
	s := New(Config{Profile: osprofile.FreeBSD205(), Clients: 10000, Seed: 13,
		TargetOps: 20000, AttemptBudget: 40000})
	s.scheduleNextArrival()
	warm := 0
	for s.evq.Step() && !s.done && warm < 2000 {
		warm++
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	steps := 0
	for s.evq.Step() && !s.done {
		steps++
	}
	runtime.ReadMemStats(&after)
	if steps < 10000 {
		t.Fatalf("measured only %d steady-state events", steps)
	}
	if got := after.Mallocs - before.Mallocs; got > 50 {
		t.Fatalf("steady state allocated %d times over %d events", got, steps)
	}
}

// The event queue only ever holds one pending arrival, one completion
// per busy nfsd slot and one head timer per non-empty retry ring — the
// traffic a plain binary heap is chosen for. If the model ever gains
// per-client timers this bound breaks, and the queue's design must be
// revisited.
func TestEventQueueBounded(t *testing.T) {
	data, err := os.ReadFile("../../examples/scale-lossy.json")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Load(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range osprofile.Paper() {
		for _, clients := range []int{10, 1_000, 1_000_000} {
			for _, lossy := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%d/lossy=%v", p.Name, clients, lossy), func(t *testing.T) {
					cfg := Config{Profile: p, Clients: clients, Seed: 1}
					if lossy {
						cfg.Faults = fault.New(plan, sim.NewRNG(1)).Net
					}
					s := New(cfg)
					bound := 1 + s.cfg.Nfsd + retryTiers
					s.scheduleNextArrival()
					peak := s.evq.Len()
					for s.evq.Step() && !s.done {
						peak = max(peak, s.evq.Len())
					}
					if lossy && s.res.Retransmits == 0 {
						t.Fatal("the loss plan dropped no RPCs")
					}
					if peak > bound {
						t.Fatalf("event queue peaked at %d events, bound is 1 + %d nfsd + %d retry tiers = %d",
							peak, s.cfg.Nfsd, retryTiers, bound)
					}
					t.Logf("peak %d of %d", peak, bound)
				})
			}
		}
	}
}

func TestResultJSONCarriesHistogram(t *testing.T) {
	r := New(Config{Profile: osprofile.Linux128(), Clients: 100, Seed: 1, TargetOps: 500}).Run()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Hist != r.Hist || back.Completed != r.Completed || back.Ledger != r.Ledger {
		t.Fatal("Result did not survive a JSON round trip")
	}
}
