package memmodel

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/cpu"
)

// BenchmarkMemmodelPass times one cold pass of each §6 routine over a
// 1 MB buffer, on the fast line-granular hierarchy and on the per-access
// reference (refModel, the attributed path the metrics view runs) — the
// per-point cost the memory sweeps pay at large sizes. EXPERIMENTS.md's
// "Harness performance" appendix records measured before/after numbers.
func BenchmarkMemmodelPass(b *testing.B) {
	const size = 1 << 20
	impls := []struct {
		name string
		mk   func() *Model
	}{
		{"fast", func() *Model { return NewModel(cpu.PentiumP54C100(), cache.PentiumConfig()) }},
		{"ref", func() *Model { return refModel(cpu.PentiumP54C100(), cache.PentiumConfig()) }},
	}
	for _, impl := range impls {
		for r := CustomRead; r <= PrefetchCopy; r++ {
			b.Run(impl.name+"/"+r.String(), func(b *testing.B) {
				m := impl.mk()
				b.SetBytes(size)
				for i := 0; i < b.N; i++ {
					coldPass(m, r, size)
				}
			})
		}
	}
}

// coldPass runs one pass of r over size bytes on a cold hierarchy and
// returns its cycle cost.
func coldPass(m *Model, r Routine, size int) float64 {
	m.layout(size)
	m.hier.Flush()
	m.hier.ResetCycles()
	m.overlapSavings = 0
	return m.pass(r, size)
}

// BenchmarkSweepPoint times SweepPoint, the unit the §6 sweeps repeat,
// for three routines at three sizes. 256 KB is two periods of the P54C,
// below the three-period floor, so it never skips and is the control;
// 1 MB and 8 MB fast-forward the periods a pass repeats.
func BenchmarkSweepPoint(b *testing.B) {
	c, cfg := cpu.PentiumP54C100(), cache.PentiumConfig()
	for _, r := range []Routine{CustomRead, LibcMemcpy, PrefetchCopy} {
		for _, size := range []int{256 << 10, 1 << 20, 8 << 20} {
			b.Run(fmt.Sprintf("%v/%dKB", r, size>>10), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sweepSink = SweepPoint(c, cfg, r, DefaultPrefetchDistance, size)
				}
			})
		}
	}
}

// sweepSink keeps BenchmarkSweepPoint's result live.
var sweepSink float64
