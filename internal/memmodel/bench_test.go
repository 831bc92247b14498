package memmodel

import (
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
