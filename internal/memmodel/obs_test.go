package memmodel

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/cpu"
)

// Observing a bandwidth point must not change its value: the attribution
// path is bit-identical to the fast path.
func TestObservedBandwidthMatchesBandwidth(t *testing.T) {
	c := cpu.PentiumP54C100()
	for _, r := range []Routine{CustomRead, Memset, PrefetchWrite, NaiveCopy, PrefetchCopy} {
		for _, size := range []int{4 << 10, 64 << 10, 1 << 20} {
			plain := NewModel(c, cache.PentiumConfig()).Bandwidth(r, size)
			obs := NewModel(c, cache.PentiumConfig()).ObservedBandwidth(r, size)
			if plain != obs.MBs {
				t.Errorf("%v/%d: observed %v != plain %v", r, size, obs.MBs, plain)
			}
			b := obs.Breakdown
			total := b.L1 + b.L2 + b.Mem + b.WriteBack + b.Overhead
			diff := total - obs.SimCycles
			if diff < 0 {
				diff = -diff
			}
			if obs.SimCycles <= 0 || diff > 1e-9*obs.SimCycles {
				t.Errorf("%v/%d: breakdown total %v vs sim cycles %v", r, size, total, obs.SimCycles)
			}
			if obs.Stats.BytesRead+obs.Stats.BytesWrit == 0 {
				t.Errorf("%v/%d: stats empty", r, size)
			}
		}
	}
}

// A memory-bound prefetching point must both hide latency (Overlap) and
// attribute cycles to memory fills.
func TestObservedBandwidthPrefetchOverlap(t *testing.T) {
	m := NewModel(cpu.PentiumP54C100(), cache.PentiumConfig())
	p := m.ObservedBandwidth(PrefetchCopy, 1<<20)
	if p.Overlap <= 0 {
		t.Fatalf("prefetch copy hid no latency: %+v", p)
	}
	if p.Breakdown.Mem == 0 || p.Breakdown.Overhead == 0 {
		t.Fatalf("expected memory and overhead attribution: %+v", p.Breakdown)
	}
}
