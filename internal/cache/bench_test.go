package cache

import "testing"

// Micro-benchmarks for the line-granular fast path. "fast" drives the
// run-length entry points on Hierarchy (one tag lookup per line); "ref"
// drives the same access sequence through the attributed reference
// (mustRef), whose runs take the per-access decomposition — the
// pre-fast-path cost, and the path the metrics view runs for F2–F8.
// EXPERIMENTS.md's "Harness performance" appendix records measured
// before/after numbers.

func benchImpls() []struct {
	name string
	mk   func(Config) *Hierarchy
} {
	return []struct {
		name string
		mk   func(Config) *Hierarchy
	}{
		{"fast", MustNew},
		{"ref", mustRef},
	}
}

// BenchmarkHierarchySequentialRead streams word reads over an L2-resident
// buffer (the dominant access pattern of the §6 sweeps).
func BenchmarkHierarchySequentialRead(b *testing.B) {
	const size = 64 << 10
	for _, impl := range benchImpls() {
		b.Run(impl.name, func(b *testing.B) {
			s := impl.mk(PentiumConfig())
			s.ReadRun(0, size/WordSize, 4, 1.33) // warm the hierarchy
			b.SetBytes(size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.ReadRun(0, size/WordSize, 4, 1.33)
			}
		})
	}
}

// BenchmarkHierarchySequentialWrite streams word writes; under the P54C's
// no-write-allocate policy every store consults both tag arrays on the
// per-access path, which is exactly what the fast path collapses.
func BenchmarkHierarchySequentialWrite(b *testing.B) {
	const size = 64 << 10
	for _, impl := range benchImpls() {
		b.Run(impl.name, func(b *testing.B) {
			s := impl.mk(PentiumConfig())
			s.WriteRun(0, size/WordSize, 4, 1.0)
			b.SetBytes(size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.WriteRun(0, size/WordSize, 4, 1.0)
			}
		})
	}
}
