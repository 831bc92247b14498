package memmodel

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/cpu"
)

// refModel builds the per-access reference model: NewModel with a cycle
// breakdown attached to its hierarchy, which sends every run-length call
// through the per-access decomposition (DESIGN.md §8.1).
func refModel(c cpu.CPU, cfg cache.Config) *Model {
	m := NewModel(c, cfg)
	m.hier.AttachBreakdown(new(cache.CycleBreakdown))
	return m
}

// Model-level differential: every routine, driven through the run-length
// fast path and through the per-access reference hierarchy, must produce
// bit-identical bandwidths and traffic stats. The sizes mix L1-resident,
// L2-resident and memory-bound working sets plus ragged tails (§6.4), and
// both write-allocate policies run.
func TestModelFastVsRefAllRoutines(t *testing.T) {
	sizes := []int{527, 4 << 10, 33 << 10, (512 << 10) + 15}
	if testing.Short() {
		sizes = []int{527, 4 << 10}
	}
	for _, wa := range []bool{false, true} {
		cfg := cache.PentiumConfig()
		cfg.WriteAllocate = wa
		for r := CustomRead; r <= PrefetchCopy; r++ {
			for _, size := range sizes {
				t.Run(fmt.Sprintf("%v/writeAlloc=%v/size%d", r, wa, size), func(t *testing.T) {
					fast := NewModel(cpu.PentiumP54C100(), cfg)
					ref := refModel(cpu.PentiumP54C100(), cfg)
					fb, rb := fast.Bandwidth(r, size), ref.Bandwidth(r, size)
					if fb != rb {
						t.Errorf("bandwidth fast=%v ref=%v (Δ %v)", fb, rb, fb-rb)
					}
					if fs, rs := fast.Hierarchy().Stats(), ref.Hierarchy().Stats(); fs != rs {
						t.Errorf("stats diverge\nfast: %+v\nref:  %+v", fs, rs)
					}
				})
			}
		}
	}
}

// RefSweepPoint computes SweepPoint's sweep point on the per-access
// reference model (refModel). It must return a value bit-identical to
// SweepPoint's — that invariant is what certifies the fast path.
func RefSweepPoint(c cpu.CPU, cfg cache.Config, r Routine, dist, size int) float64 {
	m := refModel(c, cfg)
	m.PrefetchDistance = dist
	return m.Bandwidth(r, size)
}

// RefSweepPoint must agree with SweepPoint bit for bit.
func TestRefSweepPointMatchesSweepPoint(t *testing.T) {
	c := cpu.PentiumP54C100()
	cfg := cache.PentiumConfig()
	for _, dist := range []int{0, 1, 4} {
		for _, size := range []int{512, 8 << 10, 64 << 10} {
			fast := SweepPoint(c, cfg, PrefetchWrite, dist, size)
			ref := RefSweepPoint(c, cfg, PrefetchWrite, dist, size)
			if fast != ref {
				t.Errorf("dist %d size %d: SweepPoint=%v RefSweepPoint=%v", dist, size, fast, ref)
			}
		}
	}
}

// --- Bandwidth steady-state extrapolation (samePassCost edge cases) ---

func TestSamePassCost(t *testing.T) {
	cases := []struct {
		prev, prev2 float64
		want        bool
	}{
		{0, 100, false},                // zero cost never counts as converged
		{100, 0, false},                //
		{-5, -5, false},                // negative costs are not steady state
		{100, 100, true},               // exact agreement
		{100, 100.000001, false},       // 1e-8 relative: too far apart
		{100, 100 * (1 + 1e-10), true}, // inside the 1e-9 band
		{100, 100 * (1 - 1e-10), true}, // band is symmetric
		{1e-300, 1e-300, true},         // tiny but positive and equal
	}
	for _, c := range cases {
		if got := samePassCost(c.prev, c.prev2); got != c.want {
			t.Errorf("samePassCost(%v, %v) = %v, want %v", c.prev, c.prev2, got, c.want)
		}
	}
}

// fullBandwidth replicates Bandwidth with every pass simulated — no
// steady-state extrapolation, no maxMeasured cap — as an oracle.
func fullBandwidth(m *Model, r Routine, size int) float64 {
	m.layout(size)
	m.hier.Flush()
	m.hier.ResetCycles()
	m.overlapSavings = 0
	passes := TotalTraffic / size
	if passes < 1 {
		passes = 1
	}
	var total float64
	for p := 0; p < passes; p++ {
		total += m.pass(r, size)
	}
	seconds := m.cpu.Cycles(total).Seconds()
	return float64(passes*size) / seconds / 1e6
}

// The extrapolated bandwidth must match the full simulation: once two
// consecutive passes cost the same the model is in steady state, so
// charging the remaining passes at that cost loses only float rounding
// (repeated addition vs one multiply, plus samePassCost's 1e-9 relative
// band, amplified across up to 8192 extrapolated passes — hence the 1e-6
// tolerance; observed divergence is ~2e-8).
func TestBandwidthExtrapolationMatchesFullSimulation(t *testing.T) {
	sizes := []int{1 << 10, 4 << 10, 12 << 10, 48 << 10}
	routines := []Routine{CustomRead, Memset, PrefetchCopy}
	if testing.Short() {
		sizes = sizes[:2]
		routines = routines[:2]
	}
	for _, r := range routines {
		for _, size := range sizes {
			got := model().Bandwidth(r, size)
			want := fullBandwidth(model(), r, size)
			rel := (got - want) / want
			if rel < 0 {
				rel = -rel
			}
			if rel > 1e-6 {
				t.Errorf("%v at %d bytes: extrapolated %v vs full %v (rel %v)", r, size, got, want, rel)
			}
		}
	}
}

// A buffer at least as large as TotalTraffic is a single cold pass: the
// extrapolation never engages and Bandwidth must equal the oracle exactly.
func TestBandwidthSinglePassIsExact(t *testing.T) {
	for _, size := range []int{TotalTraffic, 2 * TotalTraffic} {
		got := model().Bandwidth(CustomRead, size)
		want := fullBandwidth(model(), CustomRead, size)
		if got != want {
			t.Errorf("size %d: Bandwidth %v != single-pass oracle %v", size, got, want)
		}
	}
}

// Convergence before maxMeasured: a small resident buffer reaches steady
// state on pass 2, so the measured-pass loop must stop early — the whole
// point of the extrapolation. Observe it through the cycle ledger: the
// hierarchy's counter only advances for simulated passes.
func TestBandwidthStopsMeasuringAtSteadyState(t *testing.T) {
	m := model()
	size := 1 << 10 // L1-resident: passes = 8192, steady after pass 2
	m.Bandwidth(CustomRead, size)
	perPass := float64(size/ChunkSize) * (m.ChunkLoop + float64(wordsPerChunk)) // lower bound on one pass
	maxPlausible := 10 * perPass * 8                                            // « 8192 passes' worth
	if c := m.hier.Cycles(); c > maxPlausible {
		t.Errorf("hierarchy simulated %v cycles; steady-state cutoff did not engage (limit %v)", c, maxPlausible)
	}
}
