package core

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/memmodel"
	"repro/internal/memo"
	"repro/internal/nfsserver"
)

// workPool is the bounded token pool a Runner shares with the experiments
// it executes. Top-level experiment jobs block for a token; the fan-out
// inside experiments (parallelFor) only borrows tokens that happen to be
// free, so nested parallelism can never deadlock: a worker that finds the
// pool exhausted simply does the work itself.
type workPool struct {
	tokens    chan struct{}
	innerJobs atomic.Int64
}

// newWorkPool returns a pool of the given size, or nil for one worker:
// a nil pool runs everything serially on the caller's goroutine, the
// reference schedule the parallel one must reproduce.
func newWorkPool(workers int) *workPool {
	if workers <= 1 {
		return nil
	}
	p := &workPool{tokens: make(chan struct{}, workers)}
	for i := 0; i < workers; i++ {
		p.tokens <- struct{}{}
	}
	return p
}

func (p *workPool) acquire() { <-p.tokens }

func (p *workPool) tryAcquire() bool {
	select {
	case <-p.tokens:
		return true
	default:
		return false
	}
}

func (p *workPool) release() { p.tokens <- struct{}{} }

// workerPanic carries a panic from the worker goroutines to the caller:
// recover only sees panics on its own goroutine, so each worker records
// its panic and the caller re-raises it after the wait. Of several, the
// lowest index's is kept — the one a serial run raises first.
type workerPanic struct {
	mu  sync.Mutex
	i   int
	val any
}

// capture is deferred by a worker whose current index *i may panic.
func (w *workerPanic) capture(i *int) {
	r := recover()
	if r == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.val == nil || *i < w.i {
		w.i, w.val = *i, r
	}
}

// reraise panics with the recorded value, if any.
func (w *workerPanic) reraise() {
	if w.val != nil {
		panic(w.val)
	}
}

// forEach runs f(i) for every i in [0, n) and returns when all are
// done: in index order on the caller's goroutine when pool is nil, else
// one goroutine per index, each holding a pool token while f runs.
// Each f(i) writes only its own per-index slots, so the schedule never
// reaches the results. A panic in f reaches the caller.
func forEach(pool *workPool, n int, f func(int)) {
	if pool == nil {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var wg sync.WaitGroup
	var caught workerPanic
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer caught.capture(&i)
			pool.acquire()
			defer pool.release()
			f(i)
		}()
	}
	wg.Wait()
	caught.reraise()
}

// parallelFor executes f(i) for every i in [0, n). When cfg carries a
// worker pool with spare capacity, helper goroutines steal iterations from
// a shared counter while the caller works through them too; otherwise the
// loop runs serially in the caller.
//
// Every iteration must write only to its own per-index output slot and
// derive any randomness from cfg.Seed via saltFor — under that contract
// the schedule cannot affect the results, which is what makes parallel
// output bit-for-bit identical to serial output. A panic in f reaches
// the caller once every helper has stopped.
func parallelFor(cfg Config, n int, f func(int)) {
	pool := cfg.pool
	if pool == nil || n <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	pool.innerJobs.Add(int64(n))
	var idx atomic.Int64
	var caught workerPanic
	work := func() {
		i := -1
		defer caught.capture(&i)
		for {
			i = int(idx.Add(1)) - 1
			if i >= n {
				return
			}
			f(i)
		}
	}
	var wg sync.WaitGroup
	for helpers := 0; helpers < n-1 && pool.tryAcquire(); helpers++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer pool.release()
			work()
		}()
	}
	work()
	wg.Wait()
	caught.reraise()
}

// Runner executes experiments on a bounded worker pool. Because every
// experiment is a pure function of (Config, experiment), and every noise
// stream is forked per (experiment, series, point) by saltFor, scheduling
// them concurrently produces results bit-for-bit identical to running
// them one by one — the pool changes wall-clock time, never values.
type Runner struct {
	// Workers is the pool size; values <= 0 select runtime.GOMAXPROCS(0).
	Workers int
}

// NewRunner returns a Runner with the given pool size (<= 0 for the
// GOMAXPROCS default).
func NewRunner(workers int) *Runner { return &Runner{Workers: workers} }

func (r *Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ExperimentTiming records how long one experiment took on the pool.
type ExperimentTiming struct {
	// ID is the experiment's exhibit identifier.
	ID string
	// Wall is the experiment's wall-clock execution time.
	Wall time.Duration
}

// RunStats describes one RunAll invocation: how much work ran, how well
// the sweep memo did, and where the time went.
type RunStats struct {
	// Workers is the pool size used.
	Workers int
	// Jobs is the number of top-level experiment executions.
	Jobs int
	// InnerJobs is the number of fan-out tasks (series and sweep points)
	// experiments scheduled through the pool.
	InnerJobs int
	// MemoHits and MemoMisses count cache-hierarchy sweep points served
	// from the suite memo vs. simulated; MemoMisses equals the number of
	// unique points.
	MemoHits, MemoMisses uint64
	// Store reports the persistent result memo's counters when a store
	// was attached to the run's Config; nil otherwise.
	Store *memo.StoreStats
	// Wall is the whole run's wall-clock time.
	Wall time.Duration
	// Experiments holds per-experiment wall times, in input order.
	Experiments []ExperimentTiming
}

// Slowest returns the k slowest experiments of the run, descending.
func (st *RunStats) Slowest(k int) []ExperimentTiming {
	out := make([]ExperimentTiming, len(st.Experiments))
	copy(out, st.Experiments)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Wall > out[j].Wall })
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// RunAll executes every experiment under cfg and returns the results in
// input order, plus the run's statistics. Results are bit-for-bit
// identical to calling e.Run(cfg) serially for each experiment.
func (r *Runner) RunAll(cfg Config, exps []*Experiment) ([]*Result, *RunStats) {
	w := r.workers()
	cfg.memo = memo.NewTable[memmodel.SweepKey, float64]()
	cfg.scale = memo.NewTable[scaleKey, *nfsserver.Result]()
	cfg.bonnie = memo.NewTable[bonnieKey, bench.BonnieResult]()
	st := &RunStats{
		Workers:     w,
		Jobs:        len(exps),
		Experiments: make([]ExperimentTiming, len(exps)),
	}
	results := make([]*Result, len(exps))
	start := time.Now()
	var keyOf func(string) []byte
	if cfg.Memo != nil {
		keyOf = memoKeys(cfg)
	}
	cfg.pool = newWorkPool(w)
	forEach(cfg.pool, len(exps), func(i int) {
		t0 := time.Now()
		results[i] = runMemoized(cfg, exps[i], keyOf)
		st.Experiments[i] = ExperimentTiming{ID: exps[i].ID, Wall: time.Since(t0)}
	})
	if cfg.pool != nil {
		st.InnerJobs = int(cfg.pool.innerJobs.Load())
	}
	st.Wall = time.Since(start)
	ms := cfg.memo.Stats()
	st.MemoHits, st.MemoMisses = ms.Hits, ms.Misses
	if cfg.Memo != nil {
		ss := cfg.Memo.Stats()
		st.Store = &ss
	}
	return results, st
}
