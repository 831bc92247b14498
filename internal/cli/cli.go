// Package cli implements the pentiumbench command: parsing, dispatch and
// rendering live here (with injected output streams) so the whole
// command-line surface is unit-testable; cmd/pentiumbench is a thin shim.
package cli

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/fs"
	"repro/internal/kernel"
	"repro/internal/memo"
	"repro/internal/notes"
	"repro/internal/obs"
	"repro/internal/osprofile"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/validate"
	"repro/internal/workload"
)

// App is one command invocation's environment.
type App struct {
	// Stdout and Stderr receive the command's output.
	Stdout, Stderr io.Writer
	// ReadFile loads a file (replay traces); defaults to os.ReadFile.
	ReadFile func(string) ([]byte, error)
	// CreateFile opens a file for writing (svg output, pprof profiles);
	// defaults to os.Create.
	CreateFile func(string) (io.WriteCloser, error)
	// MkdirAll creates directories; defaults to os.MkdirAll.
	MkdirAll func(string, os.FileMode) error
}

// NewApp returns an App bound to the real environment.
func NewApp(stdout, stderr io.Writer) *App {
	return &App{
		Stdout:   stdout,
		Stderr:   stderr,
		ReadFile: os.ReadFile,
		CreateFile: func(path string) (io.WriteCloser, error) {
			return os.Create(path)
		},
		MkdirAll: os.MkdirAll,
	}
}

// Execute runs the command line and returns the process exit code.
func (a *App) Execute(args []string) int {
	fl := flag.NewFlagSet("pentiumbench", flag.ContinueOnError)
	fl.SetOutput(a.Stderr)
	var o cmdOpts
	seed := fl.Uint64("seed", 1, "master RNG seed")
	runs := fl.Int("runs", 20, "benchmark repetitions (paper: 20)")
	future := fl.Bool("future", false, "include the §13 future-work systems")
	fl.StringVar(&o.outDir, "out", "figures", "run/timeseries -format=svg: output directory")
	fl.Float64Var(&o.eps, "eps", 0.15, "sensitivity: relative perturbation of calibrated constants (below 1)")
	fl.IntVar(&o.trials, "trials", 5, "sensitivity: perturbed replicas (at most 100)")
	profilesFile := fl.String("profiles", "", "JSON file with extra OS personalities to benchmark")
	workers := fl.Int("j", 0, "parallel runner workers (0 = GOMAXPROCS, 1 = serial; at most 1024)")
	fl.IntVar(&o.procs, "procs", 0, "trace/metrics/profile/timeseries/serve/audit/faults: process count — ring size for the bare timeline (default 3), F1 probe processes (default 8); 0 for the default, else 2 to 1024, since every ring needs two")
	fl.StringVar(&o.format, "format", "", "run <ids>: 'text' (default), 'csv', 'svg' (files into -out) or 'table' (the model tables behind S1/S2, L1/L2 and I1). trace <ids>: 'chrome' (default; Perfetto-loadable JSON) or 'text'. profile <ids>: 'top' (default), 'folded' or 'pprof'")
	fl.IntVar(&o.top, "top", 0, "trace -format=text / profile -format=top: keep only the N heaviest rows per table (0 = all)")
	fl.StringVar(&o.out, "o", "", "profile: write output to this file instead of stdout")
	fl.StringVar(&o.baseline, "baseline", "BENCH_baseline.json", "baseline record/check: the baseline file path")
	fl.Float64Var(&o.tol, "tol", 0, "baseline check/diff: relative tolerance for non-integer metrics (0 = default 1e-9); integer ledgers always match exactly")
	fl.IntVar(&o.clients, "clients", 0, "run -format=table: sweep S1/S2's client populations in decades up to this count (default 1000000); trace/metrics/profile: the S1/S2 probes' population (default 1000); at most 10000000")
	fl.IntVar(&o.nfsd, "nfsd", 0, "run -format=table's S1/S2 sweep and the S1/S2 probes: server worker-slot (nfsd) count (default 8, at most 1024)")
	faultsFile := fl.String("faults", "", "the fault plan JSON to inject (see examples/lossy-nfs.json): faults compares the probes clean and under it; trace/metrics/profile/timeseries/audit inject it into the probes, run -format=table into the S1/S2 and I1 tables")
	fl.BoolVar(&o.showStats, "stats", false, "print runner statistics to stderr after run/experiments/html")
	memoDir := fl.String("memo", "", "persistent result-memo directory for run/experiments/html/serve (a cold run fills it; an unchanged re-run is served from it)")
	window := fl.Duration("window", 100*time.Millisecond, "timeseries/serve/audit, and any view under -exemplars: the width of every virtual-time window a view records, the sampler's and the exemplar reservoir's alike")
	fl.IntVar(&o.exemplars, "exemplars", 0, "trace/metrics/profile/timeseries/serve/audit: exemplar reservoir size K per -window latency window on the S1/S2 probes (0 = off; audit and /api/exemplars default to 4)")
	fl.StringVar(&o.addr, "addr", "127.0.0.1:8080", "serve: listen address (use :0 for a random port)")
	cpuProfile := fl.String("cpuprofile", "", "write a pprof CPU profile of the whole command to this file")
	memProfile := fl.String("memprofile", "", "write a pprof heap profile (post-GC, at exit) to this file")
	fl.Usage = func() { a.usage(fl) }

	// The flag package stops at the first positional argument; re-parsing
	// the remainder after collecting each positional lets flags appear on
	// either side of the command ("run all -j 8 -stats" and
	// "-j 8 run all" both work).
	var rest []string
	for remaining := args; ; {
		if err := fl.Parse(remaining); err != nil {
			return 2
		}
		remaining = fl.Args()
		if len(remaining) == 0 {
			break
		}
		rest = append(rest, remaining[0])
		remaining = remaining[1:]
	}

	if msg := flagRangeError(o, *runs, *workers, *window); msg != "" {
		fmt.Fprintln(a.Stderr, "pentiumbench:", msg)
		return 2
	}

	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	cfg.Runs = *runs
	if *future {
		cfg.Profiles = append(cfg.Profiles,
			osprofile.Linux1340(), osprofile.FreeBSD21(), osprofile.Solaris25())
	}
	if *profilesFile != "" {
		data, err := a.ReadFile(*profilesFile)
		if err != nil {
			fmt.Fprintln(a.Stderr, "pentiumbench:", err)
			return 2
		}
		extra, err := osprofile.LoadJSON(bytes.NewReader(data))
		if err != nil {
			fmt.Fprintln(a.Stderr, "pentiumbench:", err)
			return 2
		}
		cfg.Profiles = append(cfg.Profiles, extra...)
	}

	if len(rest) == 0 {
		a.usage(fl)
		return 2
	}
	if *faultsFile != "" {
		data, err := a.ReadFile(*faultsFile)
		if err == nil {
			o.faults, err = fault.Load(data)
		}
		if err != nil {
			fmt.Fprintln(a.Stderr, "pentiumbench:", err)
			return 2
		}
	}
	if *memoDir != "" {
		store, err := memo.OpenStore(*memoDir)
		if err != nil {
			fmt.Fprintln(a.Stderr, "pentiumbench:", err)
			return 2
		}
		cfg.Memo = store
	}
	runner := core.NewRunner(*workers)
	o.window = sim.Duration(*window)
	return a.profiled(*cpuProfile, *memProfile, func() int {
		return a.recovered(func() int {
			return a.dispatch(fl, cfg, runner, o, rest)
		})
	})
}

// The caps on the flags that size a model or multiply its work: the
// server allocates per client and per nfsd slot, -procs spawns that
// many threads, -runs and -trials multiply every point, and the worker
// pool holds one token per -j worker.
const (
	maxClients = 10_000_000 // ten times the 10^6 that S1/S2 sweep
	maxNfsd    = 1024
	maxProcs   = 1024 // F1 sweeps to 512
	maxRuns    = 1000
	maxTrials  = 100
	maxWorkers = 1024
)

// flagRangeError bounds-checks the numeric flags. The flag package
// already rejects malformed syntax ("-j x"); these catch values that
// parse but mean nothing ("-j -3", "-tol NaN"), or that would exhaust
// memory or never finish, before any model runs.
func flagRangeError(o cmdOpts, runs, workers int, window time.Duration) string {
	badFloat := func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) || v < 0 }
	switch {
	case runs <= 0:
		return fmt.Sprintf("-runs must be positive (got %d)", runs)
	case runs > maxRuns:
		return fmt.Sprintf("-runs must be at most %d (got %d)", maxRuns, runs)
	case workers < 0:
		return fmt.Sprintf("-j must be >= 0, 0 meaning GOMAXPROCS (got %d)", workers)
	case workers > maxWorkers:
		return fmt.Sprintf("-j must be at most %d (got %d)", maxWorkers, workers)
	case o.procs < 0:
		return fmt.Sprintf("-procs must be >= 0 (got %d)", o.procs)
	case o.procs == 1:
		return "-procs must be 0 (the command default) or at least 2: every process ring needs two (got 1)"
	case o.procs > maxProcs:
		return fmt.Sprintf("-procs must be at most %d (got %d)", maxProcs, o.procs)
	case o.trials <= 0:
		return fmt.Sprintf("-trials must be positive (got %d)", o.trials)
	case o.trials > maxTrials:
		return fmt.Sprintf("-trials must be at most %d (got %d)", maxTrials, o.trials)
	case o.top < 0:
		return fmt.Sprintf("-top must be >= 0 (got %d)", o.top)
	case o.clients < 0:
		return fmt.Sprintf("-clients must be >= 0, 0 meaning the command default (got %d)", o.clients)
	case o.clients > maxClients:
		return fmt.Sprintf("-clients must be at most %d (got %d)", maxClients, o.clients)
	case o.nfsd < 0:
		return fmt.Sprintf("-nfsd must be >= 0, 0 meaning the default 8 (got %d)", o.nfsd)
	case o.nfsd > maxNfsd:
		return fmt.Sprintf("-nfsd must be at most %d (got %d)", maxNfsd, o.nfsd)
	case o.exemplars < 0:
		return fmt.Sprintf("-exemplars must be >= 0, 0 meaning off (got %d)", o.exemplars)
	case badFloat(o.eps):
		return fmt.Sprintf("-eps must be a finite non-negative number (got %v)", o.eps)
	case o.eps >= 1:
		return fmt.Sprintf("-eps must be below 1, so every perturbation factor 1±eps stays positive (got %v)", o.eps)
	case badFloat(o.tol):
		return fmt.Sprintf("-tol must be a finite non-negative number (got %v)", o.tol)
	case window <= 0:
		return fmt.Sprintf("-window must be a positive duration (got %v)", window)
	}
	return ""
}

// recovered is the last-resort panic boundary: no command line may
// produce a Go stack trace. A kernel deadlock arrives as
// *sim.DeadlockError and renders with its diagnostic dump; anything
// else reports as an internal error. Both exit 1.
func (a *App) recovered(cmd func() int) (code int) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if d, ok := r.(*sim.DeadlockError); ok {
			a.renderDeadlock(d)
			code = 1
			return
		}
		fmt.Fprintf(a.Stderr, "pentiumbench: internal error: %v\n", r)
		code = 1
	}()
	return cmd()
}

// renderDeadlock prints a deadlock diagnostic: the one-line summary,
// then the span-buffer dump indented beneath it.
func (a *App) renderDeadlock(d *sim.DeadlockError) {
	fmt.Fprintln(a.Stderr, "pentiumbench:", d.Error())
	if d.Dump != "" {
		for _, line := range strings.Split(strings.TrimRight(d.Dump, "\n"), "\n") {
			fmt.Fprintln(a.Stderr, " ", line)
		}
	}
}

// cmdOpts holds the flag values the commands read: Execute binds the
// flags to its fields, and dispatch passes it whole.
type cmdOpts struct {
	showStats bool
	outDir    string
	eps       float64
	trials    int
	procs     int
	format    string
	top       int
	out       string
	baseline  string
	tol       float64
	// faults is the -faults plan: the faults command's plan, injected
	// into the probes of the views and into the S1/S2 and I1 tables.
	faults *fault.Plan
	// clients and nfsd shape the NFS server model: the scale sweep's
	// maximum population and the S1/S2 probes' population, and the
	// server worker-slot count (0 selects the defaults).
	clients int
	nfsd    int
	// exemplars is the per-window exemplar reservoir size K for the
	// S1/S2 probes (0 = tracing off; audit defaults it to 4).
	exemplars int
	// window is the timeseries/serve/audit sampler window width; addr
	// the serve listen address.
	window sim.Duration
	addr   string
}

// dispatch routes a parsed command line to its subcommand.
func (a *App) dispatch(fl *flag.FlagSet, cfg core.Config, runner *core.Runner,
	o cmdOpts, rest []string) int {
	if o.faults != nil {
		switch rest[0] {
		case "faults", "run", "trace", "metrics", "profile", "timeseries", "audit":
		default:
			fmt.Fprintf(a.Stderr, "pentiumbench: -faults does not apply to %q (only faults, run -format=table, trace, metrics, profile, timeseries and audit take it)\n", rest[0])
			return 2
		}
	}
	if cfg.Memo != nil {
		switch rest[0] {
		case "run", "experiments", "html", "serve":
		default:
			fmt.Fprintf(a.Stderr, "pentiumbench: -memo does not apply to %q (only run, experiments, html and serve take it)\n", rest[0])
			return 2
		}
	}
	switch rest[0] {
	case "list":
		a.list()
		return 0
	case "run":
		return a.run(cfg, runner, o, rest[1:])
	case "experiments":
		a.experiments(cfg, runner, o)
		return 0
	case "html":
		a.html(cfg, runner, o)
		return 0
	case "check":
		return a.check(cfg, runner)
	case "sensitivity":
		a.sensitivity(cfg, runner, o)
		return 0
	case "replay":
		return a.replay(cfg, rest[1:])
	case "latency":
		a.latency(cfg)
		return 0
	case "trace":
		if len(rest) == 1 {
			return a.traceTimeline(cfg, o.procs)
		}
		return a.runView("trace", cfg, runner, o, rest[1:])
	case "serve":
		return a.serve(cfg, runner, o)
	case "faults":
		return a.faults(cfg, runner, o, rest[1:])
	case "baseline":
		return a.baseline(cfg, runner, o, rest[1:])
	case "notes":
		a.notes()
		return 0
	case "platform":
		a.platform()
		return 0
	case "profiles":
		return a.profiles()
	default:
		if v := views[rest[0]]; v != nil && v.cli != nil {
			return a.runView(rest[0], cfg, runner, o, rest[1:])
		}
		fmt.Fprintf(a.Stderr, "pentiumbench: unknown command %q\n\n", rest[0])
		a.usage(fl)
		return 2
	}
}

// profiled runs cmd, optionally bracketed by pprof capture. The CPU
// profile covers the whole subcommand (parsing is negligible); the heap
// profile is written after a forced GC so it reflects memory still live
// at exit rather than transient garbage. Both files come from
// a.CreateFile, so tests can intercept them.
func (a *App) profiled(cpuPath, memPath string, cmd func() int) int {
	if cpuPath != "" {
		f, err := a.CreateFile(cpuPath)
		if err != nil {
			fmt.Fprintln(a.Stderr, "pentiumbench:", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintln(a.Stderr, "pentiumbench:", err)
			return 2
		}
		defer func() { // stopped below; defer covers early panics in cmd
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	code := cmd()
	if cpuPath != "" {
		pprof.StopCPUProfile() // idempotent with the deferred stop
	}
	if memPath != "" {
		runtime.GC()
		if err := a.writeFile(memPath, pprof.WriteHeapProfile); err != nil {
			fmt.Fprintln(a.Stderr, "pentiumbench:", err)
			return 2
		}
	}
	return code
}

func (a *App) usage(fl *flag.FlagSet) {
	fmt.Fprintln(a.Stderr, `usage: pentiumbench [flags] <command> [args] [flags]

run, experiments and html execute on a parallel deterministic runner:
-j picks the worker count (results are bit-identical at any -j), -stats
reports jobs, memo hits and wall time on stderr. -memo <dir> persists
results content-addressed on disk: a cold run fills the store, an
unchanged re-run (same seed, runs, personalities and code schema) is
served from it near-instantly, byte-identical to the cold output.

Any command can be profiled: -cpuprofile and -memprofile write pprof
files for inspection with 'go tool pprof'.

commands:
  list            show all experiments (tables, figures, ablations)
  run <ids|all>   run experiments and render results: -format=text
                  (default), csv, svg (one file per exhibit into -out),
                  or table: the deterministic model tables behind S1/S2
                  (client populations in decades up to -clients, default
                  1000000, on -nfsd slots), L1/L2 (lock contention over
                  CPU counts) and I1 (IPC bandwidth over message sizes);
                  -faults injects a plan into the S1/S2 and I1 tables
  experiments     run everything and emit the EXPERIMENTS.md body
  html            run everything and emit a self-contained HTML report
  check           evaluate every paper claim against the simulation
  sensitivity     re-check claims under perturbed calibration (-eps, -trials)
  replay <trace>  time a workload trace (builtin name or file) on every system
  latency         lmbench-style latency probes for every system
  trace [ids|all] bare: annotated kernel timeline of one token-ring lap per
                  system (-procs sets the ring size). With experiment ids:
                  run the observability probes and export their span
                  streams — -format=chrome (default) writes Chrome
                  trace-event JSON to stdout for Perfetto or
                  chrome://tracing, -format=text a per-run summary with
                  tracks ranked by cumulative virtual time (-top limits it)
  metrics <ids|all>  per-phase cycle-attribution tables for the probes:
                  where each run's modelled time went (phases sum to the
                  total); -procs sets the F1 process count
  timeseries <ids|all>  sample the instrumented probes (F1, F12, S1, S2)
                  into fixed-width virtual-time windows (-window, default
                  100ms): queue depths, busy fractions, drops and
                  windowed p50/p99 over time. -format=csv (default) emits
                  the long format, -format=json full snapshots,
                  -format=svg small-multiple timelines into -out;
                  -faults injects a fault plan, and output is
                  byte-identical at any -j
  audit <ids|all> re-run the NFS scale probes (S1, S2) with independent
                  double-entry accounting attached and evaluate every
                  queueing-law invariant: Little's law, the utilization
                  law, flow balance, histogram-vs-ledger reconciliation,
                  per-window conservation and per-exemplar phase sums.
                  -format=text (default) prints a verdict table with
                  violations ranked worst-first, -format=json the full
                  machine-readable reports; -faults audits a faulted
                  run, -exemplars overrides the reservoir size (default
                  4); nonzero exit on any violation
  serve           long-running HTTP observability server (-addr, default
                  127.0.0.1:8080): /api/experiments, /api/metrics/<id>
                  (Prometheus text with latency le-bucket histograms),
                  /api/timeseries/<id>, /api/trace/<id> (Chrome JSON),
                  /api/profile/<id> (?format=folded|pprof),
                  /api/exemplars/<id> (tail-biased request lifecycles),
                  /api/audit/<id> (queueing-law verdicts),
                  /api/baseline/diff. Responses carry SHA-256
                  content-hash ETags (If-None-Match → 304) and are
                  memoised; -memo persists results across restarts
  profile <ids|all>  fold the probes' span streams into a virtual-time
                  profile (exact, deterministic — no sampling):
                  -format=top (default) prints flat/cum tables per track,
                  -format=folded emits flamegraph.pl/inferno folded
                  stacks, -format=pprof a 'go tool pprof'-compatible
                  profile; -o writes to a file, -top truncates tables
  faults <ids|all> -faults <file>   run the observability probes clean
                  and under a deterministic fault plan (JSON; see
                  examples/lossy-nfs.json) and report the slowdown per
                  system plus the injected-fault counters. 'all' selects
                  the faultable probes. -faults injects the same plan
                  into trace, metrics, profile, timeseries and audit
  baseline record [ids|all]   record the probes' canonical metric
                  snapshot to -baseline (default BENCH_baseline.json)
  baseline check  re-run with the baseline's recorded seed and ids and
                  diff: exact match for integer ledgers, -tol relative
                  tolerance for floats; nonzero exit + ranked regression
                  table on any violation
  baseline diff <a.json> <b.json>   diff two recorded baseline files
  profiles        dump the built-in OS personalities as JSON (a template
                  for -profiles)
  notes           the paper's §11 installation/porting observations
  platform        describe the modelled hardware and systems

flags:`)
	fl.PrintDefaults()
}

func (a *App) list() {
	fmt.Fprintln(a.Stdout, "Experiments (paper exhibits first, then ablations):")
	for _, e := range core.All() {
		kind := "figure"
		if e.Kind == core.Table {
			kind = "table "
		}
		fmt.Fprintf(a.Stdout, "  %-4s %s  %-55s (%s)\n", e.ID, kind, e.Title, e.Paper)
	}
}

// resolve maps run's ids (or "all") to experiments, reporting unknowns.
func (a *App) resolve(ids []string) ([]*core.Experiment, bool) {
	switch {
	case len(ids) == 0:
		fmt.Fprintln(a.Stderr, "pentiumbench: run needs experiment ids or 'all'")
		return nil, false
	case len(ids) == 1 && ids[0] == "all":
		return core.All(), true
	}
	var exps []*core.Experiment
	for _, id := range ids {
		e, ok := core.Lookup(id)
		if !ok {
			fmt.Fprintf(a.Stderr, "pentiumbench: unknown experiment %q (try 'list')\n", id)
			return nil, false
		}
		exps = append(exps, e)
	}
	return exps, true
}

// runFormats is run's rendering surface, default first: text, csv and
// svg (one file per experiment into -out) render the selected
// experiments' Runner.RunAll results; table prints the model tables
// behind them (modelTables).
var runFormats = []string{"text", "csv", "svg", "table"}

// run is `pentiumbench run <ids|all>`: resolve the format and the ids,
// check the flags the format takes, and render.
func (a *App) run(cfg core.Config, runner *core.Runner, o cmdOpts, ids []string) int {
	format, err := pick("run", runFormats, o.format)
	if err != nil {
		fmt.Fprintln(a.Stderr, "pentiumbench:", err)
		return 2
	}
	exps, ok := a.resolve(ids)
	switch {
	case !ok:
		return 2
	case format == "table":
		return a.tables(cfg, o, ids)
	case o.faults != nil:
		fmt.Fprintf(a.Stderr, "pentiumbench: -faults does not apply to run -format=%s (only -format=table takes it)\n", format)
		return 2
	}
	if format == "svg" {
		if err := a.MkdirAll(o.outDir, 0o755); err != nil {
			fmt.Fprintln(a.Stderr, "pentiumbench:", err)
			return 1
		}
	}
	results, st := runner.RunAll(cfg, exps)
	for i, res := range results {
		switch format {
		case "text":
			if i > 0 {
				fmt.Fprintln(a.Stdout)
			}
			report.Render(a.Stdout, res)
		case "csv":
			report.CSV(a.Stdout, res)
		case "svg":
			path := fmt.Sprintf("%s/%s.svg", o.outDir, exps[i].ID)
			if err := a.writeFile(path, func(w io.Writer) error { report.SVG(w, res); return nil }); err != nil {
				fmt.Fprintln(a.Stderr, "pentiumbench:", err)
				return 1
			}
			fmt.Fprintln(a.Stdout, "wrote", path)
		}
	}
	a.maybeStats(o.showStats, st)
	return 0
}

// maybeStats prints runner statistics to stderr, keeping stdout a pure
// report: run output stays byte-identical with or without -stats.
func (a *App) maybeStats(show bool, st *core.RunStats) {
	if !show {
		return
	}
	fmt.Fprintf(a.Stderr, "runner: %d experiments + %d fan-out tasks on %d workers in %v\n",
		st.Jobs, st.InnerJobs, st.Workers, st.Wall.Round(time.Millisecond))
	fmt.Fprintf(a.Stderr, "sweep memo: %d hits, %d simulated points\n",
		st.MemoHits, st.MemoMisses)
	if st.Store != nil {
		fmt.Fprintf(a.Stderr, "memo store: %d hits, %d misses (%d stale), %d entries written\n",
			st.Store.Hits, st.Store.Misses, st.Store.Stale, st.Store.Puts)
	}
	slowest := st.Slowest(5)
	if len(slowest) == 0 {
		return
	}
	fmt.Fprint(a.Stderr, "slowest:")
	for _, e := range slowest {
		fmt.Fprintf(a.Stderr, " %s %v", e.ID, e.Wall.Round(time.Millisecond))
	}
	fmt.Fprintln(a.Stderr)
}

func (a *App) experiments(cfg core.Config, runner *core.Runner, o cmdOpts) {
	results, st := runner.RunAll(cfg, core.All())
	report.Markdown(a.Stdout, results)
	report.MarkdownClaims(a.Stdout, claimLines(results))
	a.maybeStats(o.showStats, st)
}

// claimLines scores the paper claims on results for the experiments
// report.
func claimLines(results []*core.Result) []report.ClaimLine {
	var lines []report.ClaimLine
	for _, o := range validate.Evaluate(results) {
		l := report.ClaimLine{
			ID:        o.Claim.ID,
			Exhibit:   o.Claim.Exhibit,
			Statement: o.Claim.Statement,
			Passed:    o.Passed(),
		}
		if o.Err != nil {
			l.Err = o.Err.Error()
		}
		lines = append(lines, l)
	}
	return lines
}

func (a *App) html(cfg core.Config, runner *core.Runner, o cmdOpts) {
	results, st := runner.RunAll(cfg, core.All())
	report.HTML(a.Stdout, results)
	a.maybeStats(o.showStats, st)
}

func (a *App) check(cfg core.Config, runner *core.Runner) int {
	results, _ := runner.RunAll(cfg, validate.Exhibits())
	outcomes := validate.Evaluate(results)
	failed := 0
	fmt.Fprintf(a.Stdout, "Checking %d paper claims against the simulation:\n\n", len(outcomes))
	for _, o := range outcomes {
		status := "PASS"
		if !o.Passed() {
			status = "FAIL"
			failed++
		}
		fmt.Fprintf(a.Stdout, "  [%s] %-4s (%s) %s\n", status, o.Claim.ID, o.Claim.Exhibit, o.Claim.Statement)
		if o.Err != nil {
			fmt.Fprintf(a.Stdout, "         %v\n", o.Err)
		}
	}
	fmt.Fprintf(a.Stdout, "\n%d/%d claims hold.\n", len(outcomes)-failed, len(outcomes))
	if failed > 0 {
		return 1
	}
	return 0
}

func (a *App) sensitivity(cfg core.Config, runner *core.Runner, o cmdOpts) {
	fmt.Fprintf(a.Stdout, "Re-checking every claim across %d replicas with all calibrated\n", o.trials)
	fmt.Fprintf(a.Stdout, "constants independently perturbed by ±%.0f%%. Structural choices (the\n", 100*o.eps)
	fmt.Fprintln(a.Stdout, "scheduler kinds, metadata policies, TCP windows, transfer sizes) come")
	fmt.Fprintln(a.Stdout, "from the paper's text and stay fixed.")
	fmt.Fprintln(a.Stdout)
	rob := validate.Sensitivity(runner, cfg, o.eps, o.trials)
	fragile := 0
	for _, r := range rob {
		mark := "robust "
		if !r.Robust() {
			mark = fmt.Sprintf("%d/%d   ", r.Passes, r.Trials)
			fragile++
		}
		fmt.Fprintf(a.Stdout, "  [%s] %-4s %s\n", mark, r.Claim.ID, r.Claim.Statement)
		if r.FirstFailure != nil {
			fmt.Fprintf(a.Stdout, "            e.g. %v\n", r.FirstFailure)
		}
	}
	fmt.Fprintf(a.Stdout, "\n%d/%d claims survive every perturbed replica.\n", len(rob)-fragile, len(rob))
}

func (a *App) replay(cfg core.Config, args []string) int {
	if len(args) != 1 {
		fmt.Fprintf(a.Stderr, "pentiumbench: replay needs a trace (builtin: %v, or a file path)\n",
			workload.BuiltinNames())
		return 2
	}
	tr, err := workload.Builtin(args[0])
	if err != nil {
		text, ferr := a.ReadFile(args[0])
		if ferr != nil {
			fmt.Fprintf(a.Stderr, "pentiumbench: %v; and no such file: %v\n", err, ferr)
			return 2
		}
		tr, err = workload.Parse(args[0], string(text))
		if err != nil {
			fmt.Fprintln(a.Stderr, "pentiumbench:", err)
			return 2
		}
	}
	fmt.Fprintf(a.Stdout, "Replaying trace %q on the modelled systems:\n\n", tr.Name)
	for _, p := range cfg.Profiles {
		clock := &sim.Clock{}
		d, err := disk.New(disk.HP3725(), sim.NewRNG(cfg.Seed))
		if err != nil {
			fmt.Fprintln(a.Stderr, "pentiumbench:", err)
			return 1
		}
		fsys, err := fs.New(clock, d, p)
		if err != nil {
			fmt.Fprintln(a.Stderr, "pentiumbench:", err)
			return 1
		}
		st := workload.Replay(fsys.AsVFS(), tr)
		fmt.Fprintf(a.Stdout, "  %-24s %10.3f s   (%d ops, %s written, %s read, %d errors)\n",
			p.String(), clock.Now().Sub(0).Seconds(),
			st.Ops, mb(st.BytesWritten), mb(st.BytesRead), st.Errors)
	}
	return 0
}

func (a *App) latency(cfg core.Config) {
	plat := bench.PaperPlatform()
	fmt.Fprintln(a.Stdout, "lmbench-style latency probes (µs except where noted):")
	fmt.Fprintln(a.Stdout)
	fmt.Fprintf(a.Stdout, "  %-24s %9s %9s %9s %9s %10s %12s %9s\n",
		"system", "syscall", "selfpipe", "pipe RT", "ctx@2", "fork (ms)", "f+exec (ms)", "crt0 (ms)")
	for _, p := range cfg.Profiles {
		r := bench.Latencies(plat, p, cfg.Seed)
		fmt.Fprintf(a.Stdout, "  %-24s %9.2f %9.1f %9.1f %9.1f %10.2f %12.2f %9.2f\n",
			r.OS,
			r.Syscall.Microseconds(), r.SelfPipe.Microseconds(),
			r.PipeRT.Microseconds(), r.CtxTwoProc.Microseconds(),
			r.Fork.Milliseconds(), r.ForkExec.Milliseconds(),
			r.FSCreate.Milliseconds())
	}
	fmt.Fprintln(a.Stdout)
	fmt.Fprintln(a.Stdout, "Cross-check: §5 reports the Solaris self-pipe round trip at 80 µs.")
}

// traceTimeline is the bare `trace` command: one annotated token-ring
// lap per system, ring size set by -procs (default 3), printed from the
// kernel's narration instants. A deadlock panics with a
// *sim.DeadlockError, which App.recovered renders with its dump.
func (a *App) traceTimeline(cfg core.Config, procs int) int {
	if procs == 0 {
		procs = 3
	}
	for _, p := range cfg.Profiles {
		fmt.Fprintf(a.Stdout, "%s — one %d-process token-ring lap:\n", p, procs)
		m, err := kernel.NewMachine(p, 1)
		if err != nil {
			fmt.Fprintln(a.Stderr, "pentiumbench:", err)
			return 1
		}
		rec := obs.NewRecorder(nil)
		m.Observe(rec)
		pipes := make([]*kernel.Pipe, procs)
		for i := range pipes {
			pipes[i] = m.NewPipe()
		}
		for i := 0; i < procs; i++ {
			read := kernel.Op{Kind: kernel.OpRead, P: pipes[i], N: 1}
			write := kernel.Op{Kind: kernel.OpWrite, P: pipes[(i+1)%procs], N: 1}
			ops := []kernel.Op{read, write}
			if i == 0 {
				ops = []kernel.Op{write, read}
			}
			m.SpawnThread(fmt.Sprintf("ring%d", i), ops, 1)
		}
		m.Run()
		for _, e := range rec.Events() {
			if e.Kind == obs.EvInstant {
				fmt.Fprintf(a.Stdout, "  %12s  %-9s pid=%-3d %s\n", e.When.Sub(0).Std(), e.Name, e.PID, e.Detail)
			}
		}
		fmt.Fprintf(a.Stdout, "  total %v across %d switches\n\n", m.Elapsed().Std(), m.Switches())
	}
	return 0
}

func mb(n int64) string {
	if n >= 1<<20 {
		return fmt.Sprintf("%.1f MB", float64(n)/(1<<20))
	}
	return fmt.Sprintf("%.0f KB", float64(n)/(1<<10))
}

func (a *App) notes() {
	fmt.Fprintln(a.Stdout, "The paper's §11 qualitative findings (data, not measurements):")
	fmt.Fprintln(a.Stdout)
	sections := []struct {
		title string
		items []notes.Item
	}{
		{"Installation experiences", notes.Installation()},
		{"Porting experiences", notes.Porting()},
	}
	for _, sec := range sections {
		fmt.Fprintln(a.Stdout, sec.title+":")
		fmt.Fprintf(a.Stdout, "  %-48s %-8s %-8s %-8s\n", "", "Linux", "FreeBSD", "Solaris")
		for _, it := range sec.items {
			fmt.Fprintf(a.Stdout, "  %-48s %-8s %-8s %-8s\n", it.Aspect,
				it.PerOS[0], it.PerOS[1], it.PerOS[2])
			fmt.Fprintf(a.Stdout, "      %s\n", it.Detail)
		}
		fmt.Fprintln(a.Stdout)
	}
	fmt.Fprintln(a.Stdout, "Conclusions (§12):")
	c := notes.Conclusion()
	for _, k := range []string{"Linux 1.2.8", "FreeBSD 2.0.5R", "Solaris 2.4", "overall"} {
		fmt.Fprintf(a.Stdout, "  %-16s %s\n", k+":", c[k])
	}
}

// profiles dumps every built-in personality as JSON, serving as both
// calibration documentation and a template for -profiles files.
func (a *App) profiles() int {
	if err := osprofile.WriteJSON(a.Stdout, osprofile.All()); err != nil {
		fmt.Fprintln(a.Stderr, "pentiumbench:", err)
		return 1
	}
	return 0
}

func (a *App) platform() {
	plat := bench.PaperPlatform()
	fmt.Fprintln(a.Stdout, "Modelled platform: tnt.stanford.edu (paper §2.2)")
	fmt.Fprintf(a.Stdout, "  CPU:    %s\n", plat.CPU)
	fmt.Fprintln(a.Stdout, "  RAM:    32 MB")
	for _, g := range []disk.Geometry{disk.QuantumEmpire2100(), disk.HP3725()} {
		fmt.Fprintf(a.Stdout, "  Disk:   %-22s %5d MB  %.0f rpm  avg seek %v  %.1f MB/s\n",
			g.Name, g.CapacityMB, g.RPM, g.AvgSeek, g.TransferMBs)
	}
	fmt.Fprintln(a.Stdout, "  NIC:    3Com Etherlink III 3c509 (10 Mb/s)")
	fmt.Fprintln(a.Stdout)
	fmt.Fprintln(a.Stdout, "Disk partitioning (Table 1):")
	fmt.Fprintln(a.Stdout, "  DOS/Windows 6.2/3.1   250 MB")
	fmt.Fprintln(a.Stdout, "  Solaris     2.4       700 MB")
	fmt.Fprintln(a.Stdout, "  FreeBSD     2.0.5R    400 MB")
	fmt.Fprintln(a.Stdout, "  Linux       1.2.8     600 MB")
	fmt.Fprintln(a.Stdout)
	fmt.Fprintln(a.Stdout, "Systems under test:")
	for _, p := range osprofile.All() {
		fmt.Fprintf(a.Stdout, "  %-24s %-50s fs=%s sched=%v\n",
			p.String(), p.Lineage, p.FS.Type, p.Kernel.Scheduler)
	}
}
