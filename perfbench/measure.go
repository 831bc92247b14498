package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// record accumulates one timed section. A unit is the workload's headline
// operation (a memo fill, a scale sweep, a serve round); an op is the
// smallest step a user waits for: a warm replay, the sweep itself, a warm
// request.
type record struct {
	walls  []float64 // seconds per unit
	cpus   []float64 // CPU seconds per unit
	allocs []float64 // heap MB allocated per unit
	ops    []float64 // milliseconds per op
}

// meter snapshots the process clocks at the start of a unit.
type meter struct {
	t     time.Time
	cpu   float64
	alloc uint64
}

// startMeter collects the heap first, so every unit starts from a
// collected heap as a fresh process would, and does not pay for the
// previous unit's garbage.
func startMeter() meter {
	runtime.GC()
	return meter{t: time.Now(), cpu: cpuSeconds(), alloc: heapAllocBytes()}
}

// stop appends the unit's CPU and allocation to r and returns its wall
// time; the caller records the headline wall (for serve it is only the
// cold phase of the unit).
func (m meter) stop(r *record) time.Duration {
	wall := time.Since(m.t)
	r.cpus = append(r.cpus, cpuSeconds()-m.cpu)
	r.allocs = append(r.allocs, float64(heapAllocBytes()-m.alloc)/1e6)
	return wall
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// endToEnd prints the generic unit and op summaries and returns the
// end-to-end metrics of BENCHMARK.json.
func (r *record) endToEnd(w io.Writer, setup float64) map[string]metric {
	printSummary(w, "cpu_s", "s", r.cpus)
	printSummary(w, "alloc_mb", "MB", r.allocs)
	rss := peakRSSMB()
	fmt.Fprintf(w, "peak_rss_mb %.1f MB\n", rss)
	return map[string]metric{
		"setup_s":     {setup, "s"},
		"wall_s":      {median(r.walls), "s"},
		"op_ms":       {median(r.ops), "ms"},
		"cpu_s":       {median(r.cpus), "s"},
		"alloc_mb":    {median(r.allocs), "MB"},
		"peak_rss_mb": {rss, "MB"},
	}
}

// rusage is the process's resource usage. Getrusage on RUSAGE_SELF fails
// only for a bad argument, so its error is dropped.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	ru := rusage()
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMB is the process's peak resident set (Linux reports KB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocBytes is the cumulative heap allocation, read without the
// stop-the-world pause runtime.ReadMemStats takes.
func heapAllocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// setupLaunches is how many set-up-only child processes setup_s takes the
// median of. A launch takes a few milliseconds, so many of them cost
// little and steady the median.
const setupLaunches = 41

// timeSetup measures setup_s: the driver binary is launched in
// set-up-only mode several times, and each launch is timed from process
// start to exit — package init, config and profiles, store creation and
// listener up. Launching is the only way to include package init.
func timeSetup(e *env) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, fmt.Errorf("setup timing: %w", err)
	}
	var walls []float64
	for range setupLaunches {
		cmd := exec.Command(exe, "--setup-only", "--workload", e.workload,
			"--seed", strconv.FormatUint(e.seed, 10))
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("setup-only launch: %w", err)
		}
		walls = append(walls, time.Since(t0).Seconds())
	}
	printSummary(e.out, "setup_s", "s", walls)
	return median(walls), nil
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the nearest-rank q-quantile of sorted: the smallest sample
// with at least a q share of the samples at or below it. NaN when empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// tailLadder is the set of percentiles a summary may report as its tail.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.90, 0.75}

// tailQuantile is the highest percentile of the ladder that has at least
// ten samples beyond it, or 0 when n is too small for any of them.
func tailQuantile(n int) float64 {
	for _, q := range tailLadder {
		if n-int(math.Ceil(q*float64(n))) >= 10 {
			return q
		}
	}
	return 0
}

// summary renders a timing as its median, the highest percentile with at
// least ten samples beyond it, and the sample count.
func summary(name, unit string, xs []float64) string {
	s := sortedCopy(xs)
	line := fmt.Sprintf("%s median %.4g %s", name, quantile(s, 0.5), unit)
	if q := tailQuantile(len(s)); q > 0 {
		line += fmt.Sprintf(", p%s %.4g %s", strconv.FormatFloat(100*q, 'f', -1, 64), quantile(s, q), unit)
	}
	return line + fmt.Sprintf(" (n=%d)", len(s))
}

func printSummary(w io.Writer, name, unit string, xs []float64) {
	fmt.Fprintln(w, summary(name, unit, xs))
}
