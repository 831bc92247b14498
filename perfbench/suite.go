package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/report"
)

// minUnits is how many units every timed section runs, however short
// --seconds is, so each median has at least three samples.
const minUnits = 3

// memoWarmReplays is how many warm `run all` replays follow each fill.
const memoWarmReplays = 20

// suiteWorkers is the timed runner's pool size. One worker leaves the
// host's second CPU to the garbage collector and to other tenants: in
// busy spells on a 2-CPU share, `run all` at two workers took 66–88 %
// longer than before them, and at one worker 8–51 % longer.
const suiteWorkers = 1

// suiteConfig is the paper's protocol (20 runs per point, the three
// paper personalities) under the workload seed.
func suiteConfig(seed uint64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	return cfg
}

// renderAll renders results exactly as `pentiumbench run all` does: one
// report.Render block per result, blocks separated by a blank line.
func renderAll(buf *bytes.Buffer, results []*core.Result) {
	buf.Reset()
	for i, res := range results {
		if i > 0 {
			buf.WriteByte('\n')
		}
		report.Render(buf, res)
	}
}

// executeRunAll runs `pentiumbench -seed S -j N run all` through the CLI
// entry point and returns its standard output.
func executeRunAll(seed uint64, workers int) ([]byte, error) {
	var out, errs bytes.Buffer
	args := []string{"-seed", strconv.FormatUint(seed, 10), "-j", strconv.Itoa(workers), "run", "all"}
	if code := cli.NewApp(&out, &errs).Execute(args); code != 0 {
		return nil, fmt.Errorf("run all exited %d: %s", code, errs.String())
	}
	return out.Bytes(), nil
}

// suite is what the suite workloads build before their first timed op.
type suite struct {
	cfg    core.Config
	runner *core.Runner
	exps   []*core.Experiment
}

func newSuite(e *env) suite {
	return suite{cfg: suiteConfig(e.seed), runner: core.NewRunner(suiteWorkers), exps: core.All()}
}

func setupSuiteMemo(e *env) (func(), error) {
	newSuite(e)
	dir, err := os.MkdirTemp(e.dir, "memo-")
	if err != nil {
		return nil, err
	}
	if _, err := memo.OpenStore(dir); err != nil {
		return nil, err
	}
	return func() { os.RemoveAll(dir) }, nil
}

// runSuiteMemo fills an empty memo.Store with `run all`, then replays
// `run all` from the filled store; every replay must render the fill's
// output byte for byte. Units are fills, ops are warm replays.
func runSuiteMemo(e *env) error {
	s := newSuite(e)
	ref := newRefs(e.gold.Exhibits)
	n := uint64(len(s.exps))
	var fill, warm bytes.Buffer
	start := time.Now()
	for done := 0; e.until(start, done, minUnits); done++ {
		dir, err := os.MkdirTemp(e.dir, "memo-")
		if err != nil {
			return err
		}
		if s.cfg.Memo, err = memo.OpenStore(dir); err != nil {
			return err
		}
		m := startMeter()
		results, st := s.runner.RunAll(s.cfg, s.exps)
		renderAll(&fill, results)
		e.rec.walls = append(e.rec.walls, m.stop(&e.rec).Seconds())
		checkRunAll(e.chk, ref, fill.Bytes(), s.exps)
		checkStore(e.chk, "fill", st.Store, memo.StoreStats{Misses: n, Puts: n})
		for i := range memoWarmReplays {
			// A fresh handle on the filled directory, as a new process
			// would open it.
			if s.cfg.Memo, err = memo.OpenStore(dir); err != nil {
				return err
			}
			t0 := time.Now()
			results, st := s.runner.RunAll(s.cfg, s.exps)
			renderAll(&warm, results)
			e.rec.ops = append(e.rec.ops, ms(time.Since(t0)))
			e.chk.check(bytes.Equal(warm.Bytes(), fill.Bytes()),
				"memo warm replay %d of fill %d differs from the cold output", i, done)
			checkStore(e.chk, "warm", st.Store, memo.StoreStats{Hits: n})
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	printSummary(e.out, "memo_fill_s", "s", e.rec.walls)
	printSummary(e.out, "memo_warm_ms", "ms", e.rec.ops)
	return nil
}

// checkStore checks a run's memo store counters.
func checkStore(c *checker, phase string, got *memo.StoreStats, want memo.StoreStats) {
	c.check(got != nil && *got == want, "memo %s: store stats %+v, want %+v", phase, got, want)
}
