package memmodel

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/cpu"
)

// TestStreamSkipsMatchReference holds the periodic fast-forward to the
// per-access reference, which never skips: every routine, both write
// policies, buffers of one to eight megabytes (one with a ragged tail)
// and, for the prefetching routines, distances 0, 1 and 8 must give the
// reference's bandwidth and Stats bit for bit, and every point must
// actually skip a period.
func TestStreamSkipsMatchReference(t *testing.T) {
	sizes := []int{1 << 20, 1<<20 + 15, 3 << 20, 8 << 20}
	if testing.Short() {
		sizes = sizes[:3]
	}
	c := cpu.PentiumP54C100()
	for _, wa := range []bool{false, true} {
		cfg := cache.PentiumConfig()
		cfg.WriteAllocate = wa
		for r := CustomRead; r <= PrefetchCopy; r++ {
			dists := []int{DefaultPrefetchDistance}
			if r == PrefetchWrite || r == PrefetchCopy {
				dists = []int{0, 1, 8}
			}
			for _, dist := range dists {
				for _, size := range sizes {
					t.Run(fmt.Sprintf("%v/writeAlloc=%v/dist%d/size%d", r, wa, dist, size), func(t *testing.T) {
						fast, ref := NewModel(c, cfg), refModel(c, cfg)
						fast.PrefetchDistance, ref.PrefetchDistance = dist, dist
						if fb, rb := fast.Bandwidth(r, size), ref.Bandwidth(r, size); fb != rb {
							t.Errorf("bandwidth fast=%v ref=%v (Δ %v)", fb, rb, fb-rb)
						}
						if fs, rs := fast.Hierarchy().Stats(), ref.Hierarchy().Stats(); fs != rs {
							t.Errorf("stats diverge\nfast: %+v\nref:  %+v", fs, rs)
						}
						if fast.skipped == 0 {
							t.Error("no period was skipped")
						}
						if ref.skipped != 0 {
							t.Errorf("the reference skipped %d periods", ref.skipped)
						}
					})
				}
			}
		}
	}
}

// A hierarchy whose period is shorter than one chunk has no whole period
// for stream to check: the pass runs straight through and matches the
// reference.
func TestStreamPeriodShorterThanChunk(t *testing.T) {
	cfg := cache.Config{LineSize: 4, L1Size: 4, L1Assoc: 1, L2Size: 8, L2Assoc: 1, Timing: cache.PentiumTiming()}
	c := cpu.PentiumP54C100()
	for r := CustomRead; r <= PrefetchCopy; r++ {
		fast, ref := NewModel(c, cfg), refModel(c, cfg)
		if fb, rb := fast.Bandwidth(r, 4<<10), ref.Bandwidth(r, 4<<10); fb != rb || fast.skipped != 0 {
			t.Errorf("%v: bandwidth fast=%v ref=%v, %d periods skipped", r, fb, rb, fast.skipped)
		}
	}
}
