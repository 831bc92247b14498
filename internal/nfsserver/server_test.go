package nfsserver

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
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

// The per-client counters sum to the Result's counts. Issues are
// credited a batch of draws at a time, so the rows end runs on either
// side of a batch edge (64 draws), with a drawn arrival still pending,
// at the attempt budget, at 10^6 clients and under wire loss.
func TestPerClientCountersBalance(t *testing.T) {
	light := Config{Profile: osprofile.Linux128(), Clients: 10, Seed: 11}
	budget := func(n int) Config { c := light; c.AttemptBudget = n; return c }
	pending := light
	pending.Clients, pending.TargetOps = 1000, 100
	for _, tc := range []struct {
		name     string
		cfg      Config
		loss     float64
		arrivals uint64 // the run's arrivals, when the row pins them
	}{
		{"1 arrival", budget(1), 0, 1},
		{"63 arrivals", budget(63), 0, 63},
		{"64 arrivals", budget(64), 0, 64},
		{"65 arrivals", budget(65), 0, 65},
		{"target with an arrival pending", pending, 0, 0},
		{"attempt budget", Config{Profile: osprofile.Solaris24(), Clients: 100000, Seed: 11,
			TargetOps: 20000, AttemptBudget: 5000}, 0, 0},
		{"10^6 clients", Config{Profile: osprofile.FreeBSD205(), Clients: 1000000, Seed: 11}, 0, 0},
		{"lossy", Config{Profile: osprofile.Solaris24(), Clients: 5000, Seed: 11,
			TargetOps: 3000, AttemptBudget: 30000}, 0.05, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			if tc.loss > 0 {
				cfg.Faults = lossyInjector(tc.loss, 11)
			}
			s := New(cfg)
			r := s.Run()
			f := s.Facts()
			if tc.arrivals != 0 && r.Arrivals != tc.arrivals {
				t.Fatalf("run ended at %d arrivals, want %d", r.Arrivals, tc.arrivals)
			}
			if f.ClIssued != r.Arrivals {
				t.Fatalf("per-client issued %d != arrivals %d", f.ClIssued, r.Arrivals)
			}
			if f.ClDone != r.Completed {
				t.Fatalf("per-client completed %d != completions %d", f.ClDone, r.Completed)
			}
			if f.ClRetrans != r.Retransmits {
				t.Fatalf("per-client retransmits %d != aggregate %d", f.ClRetrans, r.Retransmits)
			}
			if cfg.Faults == nil {
				return
			}
			// The injector's own ledger agrees: every wire loss was
			// attributed to exactly one client.
			if f.ClRetrans != cfg.Faults.RPCRetransmits {
				t.Fatalf("per-client retransmits %d != injector's %d", f.ClRetrans, cfg.Faults.RPCRetransmits)
			}
			if f.ClRetrans == 0 {
				t.Fatal("5% loss over 30000 attempts produced no retransmits")
			}
		})
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

// freshRun runs cfg on arrays no earlier server has used: it takes the
// spare and pooled sets first, until takeArrays makes a new set, and
// does not release the server.
func freshRun(cfg Config) (Result, Facts) {
	for takeArrays().freeList != nil {
	}
	s := New(cfg)
	return *s.Run(), s.Facts()
}

// A server on released arrays is observably a fresh one: each run of a
// chain that hands its arrays to the next — 10^6 clients, then 10, then
// 10^6 again — equals the same run on arrays no server used, and so do
// chains run concurrently, as the runner runs points at -j 8.
func TestReleasedArraysRunAsFresh(t *testing.T) {
	big := Config{Profile: osprofile.Solaris24(), Clients: 1000000, Seed: 5, AttemptBudget: 40000}
	small := Config{Profile: osprofile.Linux128(), Clients: 10, Seed: 5, TargetOps: 2000}
	mid := Config{Profile: osprofile.FreeBSD205(), Clients: 1000, Seed: 5, TargetOps: 3000,
		QueueCap: 64, Nfsd: 4}
	lossy := Config{Profile: osprofile.Solaris24(), Clients: 5000, Seed: 5,
		TargetOps: 3000, AttemptBudget: 30000}
	cfgs := []Config{big, small, mid, lossy}
	type run struct {
		res   Result
		facts Facts
	}
	fresh := make([]run, len(cfgs))
	for i, cfg := range cfgs {
		if i == 3 {
			cfg.Faults = lossyInjector(0.05, 5)
		}
		fresh[i].res, fresh[i].facts = freshRun(cfg)
	}
	// chain runs the configurations in order, each server released to
	// the next, and reports the first run that differs from its fresh
	// twin.
	chain := func(order ...int) error {
		for _, i := range order {
			cfg := cfgs[i]
			if i == 3 {
				cfg.Faults = lossyInjector(0.05, 5)
			}
			s := New(cfg)
			got := run{*s.Run(), s.Facts()}
			s.Release()
			if !reflect.DeepEqual(got.res, fresh[i].res) {
				return fmt.Errorf("config %d: Result differs from a fresh run's:\n%+v\n%+v", i, got.res, fresh[i].res)
			}
			if got.facts != fresh[i].facts {
				return fmt.Errorf("config %d: Facts differ from a fresh run's:\n%+v\n%+v", i, got.facts, fresh[i].facts)
			}
		}
		return nil
	}
	if err := chain(0, 1, 0, 2, 1, 3, 0); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 8)
	for w := 0; w < cap(errs); w++ {
		go func() { errs <- chain(1+w%3, w%2, 3-w%3, 1) }()
	}
	for w := 0; w < cap(errs); w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// A serial sweep's next server takes the set the last one released,
// whichever goroutine builds it and however many collections come
// between, so what a sweep allocates does not hang on scheduling.
func TestReleasedArraysReachNextServer(t *testing.T) {
	cfg := Config{Profile: osprofile.Linux128(), Clients: 10, Seed: 1, TargetOps: 100}
	s := New(cfg)
	s.Run()
	want := &s.clIssued[0]
	s.Release()
	runtime.GC()
	runtime.GC()
	got := make(chan *uint32)
	go func() {
		next := New(cfg)
		got <- &next.clIssued[0]
		next.Release()
	}()
	if <-got != want {
		t.Fatal("the next server on another goroutine did not reuse the released set")
	}
}

// A released server's arrays belong to the next server, so reading the
// released one panics instead of returning that server's counts.
func TestUseAfterReleasePanics(t *testing.T) {
	for name, use := range map[string]func(*Server){
		"Run":   func(s *Server) { s.Run() },
		"Facts": func(s *Server) { s.Facts() },
	} {
		t.Run(name, func(t *testing.T) {
			s := New(Config{Profile: osprofile.Linux128(), Clients: 10, Seed: 1, TargetOps: 100})
			if name == "Facts" {
				s.Run()
			}
			s.Release()
			defer func() {
				if recover() == nil {
					t.Fatalf("%s after Release did not panic", name)
				}
			}()
			use(s)
		})
	}
}
