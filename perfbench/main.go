// Command perfbench is the repository's benchmark driver. It runs one
// workload against the pentiumbench packages in its own process, times it
// on the host, checks every output it produces, and prints each metric by
// name with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; run.sh builds the driver first):
//
//	bash perfbench/run.sh --workload suite-memo --seed 1 --seconds 35 --trace 0
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// driver instead runs the layer pass (layers.go) with and without spans
// and reports the per-layer set. README.md lists every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// buildDir is where the driver keeps everything it writes: memo stores,
// the Chrome trace, its own binary. It is relative to the checkout root,
// the directory the driver runs from.
const buildDir = ".bench_build"

// workload is one benchmark input set.
type workload struct {
	// setup builds what the timed section needs and returns the closer
	// that releases it; setup-only child launches time exactly this.
	setup func(e *env) (func(), error)
	// run measures for e.seconds and records into e.
	run func(e *env) error
}

var workloads = map[string]workload{
	"suite-memo": {setup: setupSuiteMemo, run: runSuiteMemo},
	"scale-1m":   {setup: setupScale, run: runScale},
	"serve":      {setup: setupServe, run: runServe},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(os.Stderr)
	name := fl.String("workload", "", fmt.Sprintf("workload to run: %v", workloadNames()))
	seed := fl.Uint64("seed", 1, "workload seed, passed through as the model's master seed")
	seconds := fl.Float64("seconds", 10, "how long the timed section measures")
	trace := fl.Int("trace", 0, "1 runs the traced layer pass and reports per-layer metrics")
	setupOnly := fl.Bool("setup-only", false, "run only the workload's set-up, then exit (timed by the parent for setup_s)")
	record := fl.Bool("record-golden", false, "record golden.json for the golden seed and exit")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *record {
		if err := recordGolden(filepath.Join("perfbench", "golden.json")); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", *name, workloadNames())
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	e, err := newEnv(*name, *seed, *seconds, stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(e.dir)
	if *setupOnly {
		closeFn, err := w.setup(e)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		closeFn()
		return 0
	}
	var metrics map[string]metric
	if *trace == 1 {
		metrics, err = runTraced(e)
	} else {
		metrics, err = runMeasured(e, w)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return printResult(stdout, e.chk, metrics)
}

// env is one driver run's shared state.
type env struct {
	workload string
	seed     uint64
	seconds  float64
	// workers is the host's CPU count: the serve workload's connection
	// count and the layer pass's runner pool. The timed suite runs at
	// suiteWorkers instead.
	workers int
	// dir is this run's private scratch directory under buildDir.
	dir  string
	out  io.Writer
	chk  *checker
	gold *golden
	rec  record
}

func newEnv(name string, seed uint64, seconds float64, out io.Writer) (*env, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(buildDir, "run-"+name+"-")
	if err != nil {
		return nil, err
	}
	g, err := loadGolden(seed)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &env{
		workload: name, seed: seed, seconds: seconds,
		workers: runtime.NumCPU(), dir: dir, out: out,
		chk: newChecker(out), gold: g,
	}, nil
}

// until reports whether the timed section should start another unit:
// always until min units are done, then while time remains.
func (e *env) until(start time.Time, done, min int) bool {
	return done < min || time.Since(start).Seconds() < e.seconds
}

// runMeasured is the untraced run: set-up timing from child launches,
// then the workload's timed section, then the end-to-end metrics.
func runMeasured(e *env, w workload) (map[string]metric, error) {
	setup, err := timeSetup(e)
	if err != nil {
		return nil, err
	}
	if err := w.run(e); err != nil {
		return nil, err
	}
	return e.rec.endToEnd(e.out, setup), nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult writes the closing JSON line. The run completed, so the
// exit code is 0 whatever the checks found: failures are data.
func printResult(w io.Writer, c *checker, metrics map[string]metric) int {
	attempted, failed := c.counts()
	fmt.Fprintf(w, "error_rate %.6f fraction (%d failed of %d attempted)\n",
		float64(failed)/float64(max(attempted, 1)), failed, attempted)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0 && attempted > 0, max(attempted, 1), failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(w, string(line))
	return 0
}
