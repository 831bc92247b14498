package cache

import (
	"math"
	"testing"
)

// poolDrive runs a fixed mixed workload that crosses both levels,
// forces dirty evictions, inclusion invalidations and a flush, and
// returns the resulting ledger and counters.
func poolDrive(h *Hierarchy) (float64, Stats) {
	h.ReadRun(0, 4096, 8, 1.33)
	h.WriteRun(1<<15, 4096, 8, 1.33)
	h.CopyRun(0, 1<<18, 2048, 4, 0.7)
	h.Flush()
	h.ReadBytes(12345, 300)
	h.WriteBytes(54321, 300)
	h.Prefetch(1 << 19)
	h.ReadWords(1<<19, 64)
	return h.Cycles(), h.Stats()
}

// TestResetRestoresFreshBehavior is the pooling contract: a hierarchy
// that has been driven hard and then reset must replay a workload with a
// bit-identical cycle ledger and identical traffic counters to a fresh
// one — reuse can never change a result.
func TestResetRestoresFreshBehavior(t *testing.T) {
	cfg := PentiumConfig()
	wantCycles, wantStats := poolDrive(MustNew(cfg))

	h := MustNew(cfg)
	poolDrive(h) // dirty every structure
	h.reset()
	gotCycles, gotStats := poolDrive(h)

	if math.Float64bits(gotCycles) != math.Float64bits(wantCycles) {
		t.Errorf("reused cycles = %v, fresh = %v", gotCycles, wantCycles)
	}
	if gotStats != wantStats {
		t.Errorf("reused stats = %+v, fresh = %+v", gotStats, wantStats)
	}
}

// TestAcquireReleaseRoundTrip exercises the public pool path: a released
// hierarchy serves a later Acquire of the same config with fresh-run
// results, and Acquire for a different config never returns it.
func TestAcquireReleaseRoundTrip(t *testing.T) {
	cfg := PentiumConfig()
	wantCycles, wantStats := poolDrive(MustNew(cfg))

	first := MustAcquire(cfg)
	poolDrive(first)
	first.Release()

	second := MustAcquire(cfg)
	gotCycles, gotStats := poolDrive(second)
	if math.Float64bits(gotCycles) != math.Float64bits(wantCycles) {
		t.Errorf("pooled cycles = %v, fresh = %v", gotCycles, wantCycles)
	}
	if gotStats != wantStats {
		t.Errorf("pooled stats = %+v, fresh = %+v", gotStats, wantStats)
	}

	other := cfg
	other.L2Size *= 2
	h := MustAcquire(other)
	if h.Config() != other {
		t.Fatalf("Acquire(other) config = %+v, want %+v", h.Config(), other)
	}
}

// TestFlushIsGenerationBump pins the O(1) flush semantics: after Flush,
// every previously resident line reads as absent and a re-walk re-fills
// from memory exactly as on a cold hierarchy.
func TestFlushIsGenerationBump(t *testing.T) {
	h := MustNew(PentiumConfig())
	h.ReadWords(0, 16)
	if h.Contains(0) != 1 {
		t.Fatal("line not resident before flush")
	}
	h.Flush()
	if h.Contains(0) != 0 {
		t.Fatal("line still visible after flush")
	}
	before := h.Stats()
	h.ReadWords(0, 1)
	after := h.Stats()
	if after.LinesFilledFromMem != before.LinesFilledFromMem+1 {
		t.Fatalf("post-flush read did not fill from memory: %+v -> %+v", before, after)
	}
}
