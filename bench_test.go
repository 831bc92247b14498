// Package repro's root benchmarks regenerate every table and figure of
// the paper, one testing.B benchmark per exhibit (DESIGN.md §4), plus the
// §5 ablations. Each benchmark runs the full twenty-run experiment and
// reports the headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation and prints the values EXPERIMENTS.md
// records. Wall-clock time per op is the cost of simulating the exhibit,
// not the simulated quantity; read the custom metrics.
package repro

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/nfsserver"
	"repro/internal/osprofile"
)

// runExhibit executes one experiment per b.N iteration and attaches the
// result means as custom metrics.
func runExhibit(b *testing.B, id string) {
	b.Helper()
	exp, ok := core.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	cfg := core.DefaultConfig()
	var res *core.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = exp.Run(cfg)
	}
	b.StopTimer()
	unit := metricUnit(res.YUnit)
	for _, s := range res.Series {
		label := metricLabel(s.Label)
		if len(s.X) == 0 {
			b.ReportMetric(s.Samples[0].Mean(), label+"_"+unit)
			continue
		}
		// For figures, report first and peak points.
		first := s.Samples[0].Mean()
		peak := first
		for _, smp := range s.Samples {
			if m := smp.Mean(); m > peak {
				peak = m
			}
		}
		b.ReportMetric(first, label+"_first_"+unit)
		b.ReportMetric(peak, label+"_peak_"+unit)
	}
}

func metricLabel(s string) string {
	s = strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		default:
			return '-'
		}
	}, s)
	return strings.Trim(s, "-")
}

func metricUnit(u string) string {
	return strings.NewReplacer("µ", "u", "/", "p", " ", "-").Replace(u)
}

// Tables.

func BenchmarkTable2SystemCall(b *testing.B)    { runExhibit(b, "T2") }
func BenchmarkTable3MABLocal(b *testing.B)      { runExhibit(b, "T3") }
func BenchmarkTable4PipeBandwidth(b *testing.B) { runExhibit(b, "T4") }
func BenchmarkTable5TCPBandwidth(b *testing.B)  { runExhibit(b, "T5") }
func BenchmarkTable6MABNFSLinux(b *testing.B)   { runExhibit(b, "T6") }
func BenchmarkTable7MABNFSSunOS(b *testing.B)   { runExhibit(b, "T7") }

// Figures.

func BenchmarkFigure1ContextSwitch(b *testing.B) { runExhibit(b, "F1") }
func BenchmarkFigure2CustomRead(b *testing.B)    { runExhibit(b, "F2") }
func BenchmarkFigure3Memset(b *testing.B)        { runExhibit(b, "F3") }
func BenchmarkFigure4NaiveWrite(b *testing.B)    { runExhibit(b, "F4") }
func BenchmarkFigure5PrefetchWrite(b *testing.B) { runExhibit(b, "F5") }
func BenchmarkFigure6Memcpy(b *testing.B)        { runExhibit(b, "F6") }
func BenchmarkFigure7NaiveCopy(b *testing.B)     { runExhibit(b, "F7") }
func BenchmarkFigure8PrefetchCopy(b *testing.B)  { runExhibit(b, "F8") }
func BenchmarkFigure9BonnieRead(b *testing.B)    { runExhibit(b, "F9") }
func BenchmarkFigure10BonnieWrite(b *testing.B)  { runExhibit(b, "F10") }
func BenchmarkFigure11BonnieSeek(b *testing.B)   { runExhibit(b, "F11") }
func BenchmarkFigure12CreateDelete(b *testing.B) { runExhibit(b, "F12") }
func BenchmarkFigure13UDP(b *testing.B)          { runExhibit(b, "F13") }

// Ablations (DESIGN.md §5).

func BenchmarkAblationWriteAllocate(b *testing.B)    { runExhibit(b, "A1") }
func BenchmarkAblationPrefetchDistance(b *testing.B) { runExhibit(b, "A2") }
func BenchmarkAblationScheduler(b *testing.B)        { runExhibit(b, "A3") }
func BenchmarkAblationMetadataPolicy(b *testing.B)   { runExhibit(b, "A4") }
func BenchmarkAblationTCPWindow(b *testing.B)        { runExhibit(b, "A5") }
func BenchmarkAblationNFSWritePolicy(b *testing.B)   { runExhibit(b, "A6") }
func BenchmarkAblationMemoryPressure(b *testing.B)   { runExhibit(b, "A7") }

// Supplementary evidence exhibits.

func BenchmarkSupplementMABPhases(b *testing.B)     { runExhibit(b, "X1") }
func BenchmarkSupplementCrtdelDiskOps(b *testing.B) { runExhibit(b, "X2") }

// Scale-out exhibits: the full S1/S2 sweeps, then single server-model
// points at the populations the perf record tracks. The custom metric is
// the modelled served rate; ns/op is the cost of simulating the point.

func BenchmarkScaleThroughputSweep(b *testing.B) { runExhibit(b, "S1") }
func BenchmarkScaleLatencySweep(b *testing.B)    { runExhibit(b, "S2") }

// SMP and IPC exhibits (DESIGN.md §16).

func BenchmarkLockThroughputSweep(b *testing.B) { runExhibit(b, "L1") }
func BenchmarkLockWaitSweep(b *testing.B)       { runExhibit(b, "L2") }
func BenchmarkIPCBandwidthSweep(b *testing.B)   { runExhibit(b, "I1") }

func benchScalePoint(b *testing.B, clients int) {
	b.Helper()
	cfg := nfsserver.Config{Profile: osprofile.Linux128(), Clients: clients, Seed: 1}
	var res *nfsserver.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = nfsserver.New(cfg).Run()
	}
	b.StopTimer()
	b.ReportMetric(res.Throughput(), "modelled_opsps")
	b.ReportMetric(float64(res.Completed), "served_ops")
	// Host time per server-ingress attempt: the model's per-operation
	// cost, comparable across client counts.
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(res.Attempts), "ns/attempt")
}

func BenchmarkScaleServer1kClients(b *testing.B) { benchScalePoint(b, 1_000) }
func BenchmarkScaleServer1MClients(b *testing.B) { benchScalePoint(b, 1_000_000) }

// Whole-suite benchmarks: the wall-clock cost of regenerating every
// exhibit. Serial is the seed harness's schedule (direct Run calls, no
// memo); Parallel is the core.Runner at the GOMAXPROCS default, which
// also memoizes shared cache-hierarchy sweeps. The "Harness performance"
// appendix of EXPERIMENTS.md records measured ratios.

func BenchmarkSuiteSerial(b *testing.B) {
	cfg := core.DefaultConfig()
	exps := core.All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range exps {
			if res := e.Run(cfg); res == nil {
				b.Fatalf("%s returned nil", e.ID)
			}
		}
	}
}

func BenchmarkSuiteParallel(b *testing.B) {
	cfg := core.DefaultConfig()
	exps := core.All()
	runner := core.NewRunner(0) // GOMAXPROCS workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, _ := runner.RunAll(cfg, exps)
		if len(results) != len(exps) {
			b.Fatalf("got %d results, want %d", len(results), len(exps))
		}
	}
}

// TestEveryExhibitHasABenchmark cross-checks DESIGN.md's promise that each
// registered experiment has a root bench target.
func TestEveryExhibitHasABenchmark(t *testing.T) {
	covered := map[string]bool{
		"T2": true, "T3": true, "T4": true, "T5": true, "T6": true, "T7": true,
		"F1": true, "F2": true, "F3": true, "F4": true, "F5": true, "F6": true,
		"F7": true, "F8": true, "F9": true, "F10": true, "F11": true, "F12": true,
		"F13": true,
		"A1":  true, "A2": true, "A3": true, "A4": true, "A5": true, "A6": true, "A7": true,
		"X1": true, "X2": true,
		"S1": true, "S2": true,
		"L1": true, "L2": true, "I1": true,
	}
	for _, e := range core.All() {
		if !covered[e.ID] {
			t.Errorf("experiment %s has no root benchmark", e.ID)
		}
	}
}

// Example of reading one exhibit programmatically.
func Example() {
	exp, _ := core.Lookup("T2")
	res := exp.Run(core.DefaultConfig())
	for _, s := range res.Series {
		fmt.Printf("%s: %.2f %s\n", s.Label, s.Samples[0].Mean(), res.YUnit)
	}
	// Output:
	// Linux 1.2.8: 2.31 µs
	// FreeBSD 2.0.5R: 2.62 µs
	// Solaris 2.4: 3.49 µs
}
