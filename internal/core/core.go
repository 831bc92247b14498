// Package core is the experiment harness: it maps every table and figure
// of the paper (and the ablations in DESIGN.md §5) to a runnable
// experiment, executes the twenty-run protocol of §3, and produces
// structured results that package report renders and EXPERIMENTS.md
// records.
package core

import (
	"slices"
	"strconv"
	"sync"

	"repro/internal/bench"
	"repro/internal/memmodel"
	"repro/internal/memo"
	"repro/internal/nfsserver"
	"repro/internal/osprofile"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Kind distinguishes the paper's two exhibit forms.
type Kind int

const (
	// Table is a single value per operating system (Tables 2-7).
	Table Kind = iota
	// Figure is a curve — one per OS, or a single hardware curve
	// (Figures 1-13).
	Figure
)

// Config controls a run of the suite.
type Config struct {
	// Seed is the master seed; every stochastic element derives from it.
	// The default seed 1 reproduces EXPERIMENTS.md bit for bit.
	Seed uint64
	// Runs is the number of benchmark repetitions (the paper used 20).
	Runs int
	// Profiles are the systems under test, in presentation order.
	Profiles []*osprofile.Profile

	// Memo, when non-nil, persists whole experiment results across suite
	// runs: RunAll serves an experiment from the store when its key — the
	// memo schema version, experiment ID, seed, run count and the full
	// personality set — matches a stored entry, and stores fresh results
	// for the next run. Serving from the store cannot change output:
	// results round-trip the store bit for bit.
	Memo *memo.Store

	// pool is the worker pool of the Runner executing this configuration.
	// Experiments fan their per-(series, sweep-point) model runs out on it
	// via parallelFor; nil (the zero Config, and every direct e.Run call)
	// means serial execution.
	pool *workPool
	// memo caches cache-hierarchy sweep points across the experiments of
	// one suite run; nil disables memoization. Results are identical
	// either way — the model is a pure function of the memo key.
	memo *memo.Table[memmodel.SweepKey, float64]
	// scale caches NFS scale-out sweep points (S1/S2 share every
	// (personality, clients) server run) across one suite run; nil runs
	// each point directly. The server model is a pure function of the
	// key, so the cache changes wall-clock time, never values.
	scale *memo.Table[scaleKey, *nfsserver.Result]
	// bonnie caches bonnie runs (F9, F10 and F11 share every
	// (personality, size, seed) run) across one suite run; nil runs each
	// point directly.
	bonnie *memo.Table[bonnieKey, bench.BonnieResult]
}

// DefaultConfig returns the paper's protocol: twenty runs of Linux 1.2.8,
// FreeBSD 2.0.5R and Solaris 2.4, seed 1.
func DefaultConfig() Config {
	return Config{Seed: 1, Runs: 20, Profiles: osprofile.Paper()}
}

// Series is one labelled curve (or, for tables, one labelled value) of a
// result: per X value, the sample of per-run measurements.
type Series struct {
	// Label identifies the curve: usually an OS, sometimes a routine or a
	// variant ("Solaris-LIFO").
	Label string
	// X holds the sweep parameter values (empty for tables).
	X []float64
	// Samples holds one twenty-run sample per X entry (exactly one entry
	// for tables).
	Samples []*stats.Sample
}

// Result is one executed experiment.
type Result struct {
	// ID is the exhibit identifier: "T2", "F13", "A5", ...
	ID string
	// Title is the exhibit's name as in the paper.
	Title string
	// Kind says whether this renders as a table or a figure.
	Kind Kind
	// YUnit and XLabel describe the axes ("µs", "MB/s"; "processes",
	// "buffer bytes").
	YUnit, XLabel string
	// LogX indicates the paper plotted the X axis on a log scale.
	LogX bool
	// Direction says whether smaller or larger YUnit values are better.
	Direction stats.Direction
	// Series holds the curves/rows.
	Series []Series
	// Expected holds the paper's reported numbers where the paper gives
	// them (tables and a few figure landmarks); nil otherwise.
	Expected []Expectation
	// Notes carries the qualitative shape claims the paper makes about
	// this exhibit, for EXPERIMENTS.md.
	Notes []string
}

// FindSeries returns the series with the given label, or nil.
func (r *Result) FindSeries(label string) *Series {
	for i := range r.Series {
		if r.Series[i].Label == label {
			return &r.Series[i]
		}
	}
	return nil
}

// ExpectationFor returns the paper's expectation for a label, if any.
func (r *Result) ExpectationFor(label string) (Expectation, bool) {
	for _, e := range r.Expected {
		if e.Label == label {
			return e, true
		}
	}
	return Expectation{}, false
}

// Expectation is one paper-reported value.
type Expectation struct {
	// Label matches a Series label (or landmark description).
	Label string
	// Mean is the paper's reported mean in YUnit.
	Mean float64
	// StdDevPct is the paper's reported standard deviation (% of mean),
	// or 0 if not reported.
	StdDevPct float64
}

// Experiment is one exhibit, declared once: the header every Result it
// produces carries, and the function that sweeps its series.
type Experiment struct {
	// ID is the exhibit identifier ("T2", "F1", "A3"); Title names it.
	ID    string
	Title string
	// Kind says whether this renders as a table or a figure.
	Kind Kind
	// Paper references the paper section/table/figure.
	Paper string
	// YUnit, XLabel, LogX, Direction, Expected and Notes are the
	// Result fields of the same names.
	YUnit, XLabel string
	LogX          bool
	Direction     stats.Direction
	Expected      []Expectation
	Notes         []string
	// Series runs the exhibit's models under cfg, one Series per curve
	// or table row, each built by curve or row.
	Series func(cfg Config) []Series
}

// Run executes the experiment under cfg.
func (e *Experiment) Run(cfg Config) *Result {
	return &Result{
		ID: e.ID, Title: e.Title, Kind: e.Kind,
		YUnit: e.YUnit, XLabel: e.XLabel, LogX: e.LogX, Direction: e.Direction,
		Series:   e.Series(cfg),
		Expected: e.Expected,
		Notes:    e.Notes,
	}
}

// registry holds all experiments in presentation order.
var registry []*Experiment

func register(e *Experiment) { registry = append(registry, e) }

// All returns every experiment in presentation order: the paper's tables
// and figures in paper order, then the ablations. Ordering goes through
// a precomputed key table — each ID's rank packed above its registration
// index — so a plain integer sort replaces the comparator closure and
// its repeated rank calls, with the index bits keeping equal ranks in
// registration order.
func All() []*Experiment {
	keys := make([]int64, len(registry))
	for i, e := range registry {
		keys[i] = int64(rank(e.ID))<<32 | int64(i)
	}
	slices.Sort(keys)
	out := make([]*Experiment, len(registry))
	for j, k := range keys {
		out[j] = registry[k&(1<<32-1)]
	}
	return out
}

// rankUnknown sorts IDs whose shape rank does not understand after every
// well-formed ID, keeping their relative registration order stable.
const rankUnknown = 1 << 20

// rank orders experiment IDs: T2..T7, then F1..F13, then A1..A7, then the
// supplementary X exhibits, then the S scale-out exhibits, then the L
// lock-contention and I IPC families. A malformed
// ID — empty, a bare letter, or a non-numeric suffix like "T2b" — ranks
// after everything rather than silently parsing as 0 and jumping the
// queue.
func rank(id string) int {
	if len(id) < 2 {
		return rankUnknown
	}
	n, err := strconv.Atoi(id[1:])
	if err != nil || n < 0 {
		return rankUnknown
	}
	switch id[0] {
	case 'T':
		return n
	case 'F':
		return 100 + n
	case 'A':
		return 200 + n
	case 'X':
		return 300 + n
	case 'S':
		return 400 + n
	case 'L':
		return 500 + n
	case 'I':
		return 600 + n
	}
	return rankUnknown
}

// lookupIndex is the lazily built ID → experiment map behind Lookup.
// Registration only happens in package init functions, so the index can
// be built once, on the first Lookup.
var (
	lookupOnce  sync.Once
	lookupIndex map[string]*Experiment
)

// Lookup finds an experiment by ID (case-sensitive, e.g. "T2") in O(1).
func Lookup(id string) (*Experiment, bool) {
	lookupOnce.Do(func() {
		lookupIndex = make(map[string]*Experiment, len(registry))
		for _, e := range registry {
			// First registration wins, matching the linear scan this
			// index replaced; ValidateRegistry reports duplicates.
			if _, dup := lookupIndex[e.ID]; !dup {
				lookupIndex[e.ID] = e
			}
		}
	})
	e, ok := lookupIndex[id]
	return e, ok
}

// noiseSample replicates a deterministic model mean into a run sample
// with the personality's calibrated relative noise, reproducing the
// paper's twenty-run protocol. The salt isolates each (experiment,
// series, point) stream so adding a series never perturbs another's. At
// rel 0 every run is exactly mean: sim.RNG.Noise(0) is exactly 1.
func noiseSample(cfg Config, salt uint64, rel float64, mean float64) *stats.Sample {
	rng := sim.NewRNG(cfg.Seed).Fork(salt)
	s := &stats.Sample{}
	runs := cfg.Runs
	if runs <= 0 {
		runs = 20
	}
	for r := 0; r < runs; r++ {
		s.Add(mean * rng.Noise(rel))
	}
	return s
}

// curve applies the twenty-run protocol to one swept series: point i
// sits at xs[i], its model mean is mean(i), and its runs are drawn with
// relative noise rel from the stream saltFor(id, salt, i). The points
// fan out on cfg's pool, so mean must be a pure function of i.
func curve(cfg Config, id, salt, label string, xs []float64, rel float64, mean func(i int) float64) Series {
	s := Series{Label: label, X: xs, Samples: make([]*stats.Sample, len(xs))}
	parallelFor(cfg, len(xs), func(i int) {
		s.Samples[i] = noiseSample(cfg, saltFor(id, salt, i), rel, mean(i))
	})
	return s
}

// row applies the twenty-run protocol to one table row: the model mean,
// drawn with relative noise rel from the stream saltFor(id, label, 0).
func row(cfg Config, id, label string, rel, mean float64) Series {
	return Series{Label: label, Samples: []*stats.Sample{noiseSample(cfg, saltFor(id, label, 0), rel, mean)}}
}

// fan builds n series, series i being f(i), fanned out on cfg's pool.
func fan(cfg Config, n int, f func(i int) Series) []Series {
	out := make([]Series, n)
	parallelFor(cfg, n, func(i int) { out[i] = f(i) })
	return out
}

// perProfile builds one series per (personality, variant) pair of cfg's
// profiles and n variants, personalities outermost, fanned out on cfg's
// pool.
func perProfile(cfg Config, n int, f func(p *osprofile.Profile, v int) Series) []Series {
	return fan(cfg, len(cfg.Profiles)*n, func(i int) Series { return f(cfg.Profiles[i/n], i%n) })
}

// floats converts a sweep's integer parameter values to X coordinates.
func floats[T int | int64](ns []T) []float64 {
	xs := make([]float64, len(ns))
	for i, n := range ns {
		xs[i] = float64(n)
	}
	return xs
}

// saltFor derives a stable per-(experiment, series, point) RNG label.
func saltFor(id, label string, idx int) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range id + "\x00" + label {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h*31 + uint64(idx)
}

// profileNoise picks the calibrated noise level for an experiment area.
type noiseArea int

const (
	noiseSyscall noiseArea = iota
	noiseCtx
	noiseMem
	noiseFS
	noiseMAB
	noisePipe
	noiseUDP
	noiseTCP
	noiseNFS
)

func noiseFor(p *osprofile.Profile, a noiseArea) float64 {
	switch a {
	case noiseSyscall:
		return p.Noise.Syscall
	case noiseCtx:
		return p.Noise.Ctx
	case noiseMem:
		return p.Noise.Mem
	case noiseFS:
		return p.Noise.FS
	case noiseMAB:
		return p.Noise.MAB
	case noisePipe:
		return p.Noise.Pipe
	case noiseUDP:
		return p.Noise.UDP
	case noiseTCP:
		return p.Net.TCPNoise
	case noiseNFS:
		return p.Noise.NFS
	}
	return 0.01
}
