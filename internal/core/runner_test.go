package core

import (
	"sync/atomic"
	"testing"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/memmodel"
	"repro/internal/memo"
	"repro/internal/sim"
)

// assertResultsIdentical compares two result sets bit for bit: every
// series label, every X value, every run value, every mean and std dev.
func assertResultsIdentical(t *testing.T, want, got []*Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("result count: %d vs %d", len(want), len(got))
	}
	for ri := range want {
		w, g := want[ri], got[ri]
		if w.ID != g.ID || len(w.Series) != len(g.Series) {
			t.Fatalf("%s: shape mismatch (%s, %d vs %d series)", w.ID, g.ID, len(w.Series), len(g.Series))
		}
		for si := range w.Series {
			ws, gs := &w.Series[si], &g.Series[si]
			if ws.Label != gs.Label {
				t.Fatalf("%s series %d: label %q vs %q", w.ID, si, ws.Label, gs.Label)
			}
			if len(ws.X) != len(gs.X) || len(ws.Samples) != len(gs.Samples) {
				t.Fatalf("%s/%s: point count mismatch", w.ID, ws.Label)
			}
			for i := range ws.X {
				if ws.X[i] != gs.X[i] {
					t.Fatalf("%s/%s X[%d]: %v vs %v", w.ID, ws.Label, i, ws.X[i], gs.X[i])
				}
			}
			for i := range ws.Samples {
				wv, gv := ws.Samples[i].Values(), gs.Samples[i].Values()
				if len(wv) != len(gv) {
					t.Fatalf("%s/%s point %d: %d vs %d runs", w.ID, ws.Label, i, len(wv), len(gv))
				}
				for r := range wv {
					if wv[r] != gv[r] {
						t.Fatalf("%s/%s point %d run %d: %v vs %v",
							w.ID, ws.Label, i, r, wv[r], gv[r])
					}
				}
				if ws.Samples[i].Mean() != gs.Samples[i].Mean() {
					t.Fatalf("%s/%s point %d: mean %v vs %v",
						w.ID, ws.Label, i, ws.Samples[i].Mean(), gs.Samples[i].Mean())
				}
				if ws.Samples[i].StdDev() != gs.Samples[i].StdDev() {
					t.Fatalf("%s/%s point %d: std dev %v vs %v",
						w.ID, ws.Label, i, ws.Samples[i].StdDev(), gs.Samples[i].StdDev())
				}
			}
		}
	}
}

// TestRunnerParallelBitIdentical is the determinism regression test: the
// full registry, run serially (direct e.Run, no pool, no memo) and on an
// 8-worker pool, must agree on every value of every sample. Running this
// under `go test -race` additionally certifies the runner race-free.
func TestRunnerParallelBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite twice")
	}
	cfg := smallConfig()
	exps := All()
	serial := make([]*Result, len(exps))
	for i, e := range exps {
		serial[i] = e.Run(cfg)
	}
	parallel, st := NewRunner(8).RunAll(cfg, exps)
	assertResultsIdentical(t, serial, parallel)
	if st.Jobs != len(exps) {
		t.Errorf("stats jobs = %d, want %d", st.Jobs, len(exps))
	}
	if st.Workers != 8 {
		t.Errorf("stats workers = %d, want 8", st.Workers)
	}
	if st.InnerJobs == 0 {
		t.Error("no fan-out tasks recorded; experiments did not use the pool")
	}
	if st.MemoHits == 0 {
		t.Error("memo recorded no hits; shared sweeps are being re-simulated")
	}
}

// TestRunnerSerialMatchesDirect pins the -j 1 path (pool-free, but
// memoized) to the direct e.Run path.
func TestRunnerSerialMatchesDirect(t *testing.T) {
	cfg := smallConfig()
	exps := []*Experiment{mustLookup(t, "T2"), mustLookup(t, "F3"), mustLookup(t, "A1")}
	direct := make([]*Result, len(exps))
	for i, e := range exps {
		direct[i] = e.Run(cfg)
	}
	viaRunner, st := NewRunner(1).RunAll(cfg, exps)
	assertResultsIdentical(t, direct, viaRunner)
	if st.InnerJobs != 0 {
		t.Errorf("serial runner scheduled %d pool tasks", st.InnerJobs)
	}
	// F3's memset sweep and A1's no-write-allocate memset sweep are the
	// same points; the memo must have shared them even at -j 1.
	if st.MemoHits == 0 {
		t.Error("serial runner memo recorded no hits")
	}
}

func mustLookup(t *testing.T, id string) *Experiment {
	t.Helper()
	e, ok := Lookup(id)
	if !ok {
		t.Fatalf("missing experiment %s", id)
	}
	return e
}

func TestRunnerDefaultWorkers(t *testing.T) {
	if w := NewRunner(0).workers(); w < 1 {
		t.Fatalf("default workers = %d", w)
	}
	if w := NewRunner(3).workers(); w != 3 {
		t.Fatalf("explicit workers = %d, want 3", w)
	}
}

func TestParallelForCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		var cfg Config
		if workers > 1 {
			cfg.pool = newWorkPool(workers)
		}
		const n = 100
		var seen [n]atomic.Int32
		parallelFor(cfg, n, func(i int) { seen[i].Add(1) })
		for i := range seen {
			if c := seen[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, c)
			}
		}
	}
}

func TestParallelForNeverDeadlocksWhenNested(t *testing.T) {
	var cfg Config
	cfg.pool = newWorkPool(2)
	var count atomic.Int32
	parallelFor(cfg, 8, func(int) {
		parallelFor(cfg, 8, func(int) { count.Add(1) })
	})
	if count.Load() != 64 {
		t.Fatalf("nested tasks = %d, want 64", count.Load())
	}
}

// A panic on a pool goroutine reaches the caller's recover with its
// value intact, as App.recovered needs to render a deadlock's dump.
// Index 1 panics and index 0 waits until index 1 has started, so each
// loop must run index 1 off the caller's goroutine or return.
func TestWorkerPanicReachesCaller(t *testing.T) {
	loops := map[string]func(f func(int)){
		"forEach":     func(f func(int)) { forEach(newWorkPool(2), 2, f) },
		"parallelFor": func(f func(int)) { parallelFor(Config{pool: newWorkPool(2)}, 2, f) },
	}
	for name, loop := range loops {
		want := &sim.DeadlockError{Blocked: []string{"1 (" + name + ")"}}
		started := make(chan struct{})
		got := func() (r any) {
			defer func() { r = recover() }()
			loop(func(i int) {
				if i == 1 {
					close(started)
					panic(want)
				}
				<-started
			})
			return nil
		}()
		if got != want {
			t.Errorf("%s: the caller recovered %v, want the worker's %v", name, got, want)
		}
	}
}

func TestRunStatsSlowest(t *testing.T) {
	st := &RunStats{Experiments: []ExperimentTiming{
		{ID: "T2", Wall: 1}, {ID: "F1", Wall: 30}, {ID: "T3", Wall: 20},
	}}
	top := st.Slowest(2)
	if len(top) != 2 || top[0].ID != "F1" || top[1].ID != "T3" {
		t.Fatalf("Slowest(2) = %v", top)
	}
	if got := st.Slowest(10); len(got) != 3 {
		t.Fatalf("Slowest(10) returned %d entries", len(got))
	}
}

// TestMemSweepRefModelBitIdentical certifies the line-granular cache fast
// path end to end: the same sweeps the §6 figures run, re-simulated on the
// attributed model (a memmodel.NewModel whose hierarchy has a cycle
// breakdown attached, so every run takes the per-access decomposition and
// never fast-forwards a period), must reproduce the fast path's
// bandwidths bit for bit. The 1 MB and 8 MB points are ones where the
// fast path skips periods. This is the suite-level face of the
// differential property tests in internal/cache and internal/memmodel.
func TestMemSweepRefModelBitIdentical(t *testing.T) {
	cfg := smallConfig()
	sizes := []int{512, 4 << 10, 64 << 10, 512 << 10, 1 << 20, 8 << 20}
	if testing.Short() {
		sizes = sizes[:3]
	}
	for _, r := range []memmodel.Routine{memmodel.CustomRead, memmodel.Memset, memmodel.PrefetchCopy} {
		for _, size := range sizes {
			fast := memPoint(cfg, cache.PentiumConfig(), r, memmodel.DefaultPrefetchDistance, size)
			m := memmodel.NewModel(bench.PaperPlatform().CPU, cache.PentiumConfig())
			m.Hierarchy().AttachBreakdown(new(cache.CycleBreakdown))
			m.PrefetchDistance = memmodel.DefaultPrefetchDistance
			if ref := m.Bandwidth(r, size); fast != ref {
				t.Errorf("%v at %d bytes: fast %v, reference %v", r, size, fast, ref)
			}
		}
	}
}

// TestMemSweepMemoMatchesDirect checks the memoized sweep against the
// unmemoized one, and the memo's single-flight accounting.
func TestMemSweepMemoMatchesDirect(t *testing.T) {
	cfg := smallConfig()
	sizes := []int{64, 1 << 10, 32 << 10}
	sweep := func() []float64 {
		out := make([]float64, len(sizes))
		for i, size := range sizes {
			out[i] = memPoint(cfg, cache.PentiumConfig(), memmodel.Memset, memmodel.DefaultPrefetchDistance, size)
		}
		return out
	}
	direct := sweep()
	cfg.memo = memo.NewTable[memmodel.SweepKey, float64]()
	first := sweep()
	second := sweep()
	for i := range sizes {
		if direct[i] != first[i] || first[i] != second[i] {
			t.Fatalf("point %d: direct %v, first %v, second %v", i, direct[i], first[i], second[i])
		}
	}
	st := cfg.memo.Stats()
	if st.Misses != uint64(len(sizes)) || st.Hits != uint64(len(sizes)) {
		t.Fatalf("memo stats = %+v, want %d misses and %d hits", st, len(sizes), len(sizes))
	}
	// A different distance is a different key, even for a routine that
	// never prefetches — correctness over cleverness.
	memPoint(cfg, cache.PentiumConfig(), memmodel.Memset, 4, 64)
	if got := cfg.memo.Stats().Misses; got != uint64(len(sizes))+1 {
		t.Fatalf("distance not part of the key: misses = %d", got)
	}
}
