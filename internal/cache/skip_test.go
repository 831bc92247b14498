package cache

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestExactRepeatsProperty holds ExactRepeats to its promise: for start
// sums across binades 2⁻² to 2⁴⁰ and blocks of 1–50 charges drawn from
// the calibrated timing, the memory model's loop charges and constructed
// ties, adding the block k more times one charge at a time ends at
// x1 + k·(x1−x0) bit for bit, for every k up to the returned count.
func TestExactRepeatsProperty(t *testing.T) {
	tm := PentiumTiming()
	charges := []float64{
		tm.WordHit, tm.WordWriteHit, tm.ByteOp, tm.L2WordAccess, tm.L1FillFromL2,
		tm.FillFromMem, tm.MemWordWrite, tm.MemByteWrite, tm.L1WriteBack,
		tm.L2WriteBack, tm.PrefetchIssue, 1.33, 1.0, 0.7,
	}
	const maxK = 64
	rng := rand.New(rand.NewSource(1))
	trials, repeated, tieRepeated := 20000, 0, 0
	if testing.Short() {
		trials = 4000
	}
	for trial := 0; trial < trials; trial++ {
		e := rng.Intn(43) - 2
		lo, u := math.Ldexp(1, e), math.Ldexp(1, e-52)
		// Anywhere in the binade, or near its top, where the count is small.
		x0 := lo + float64(rng.Int63n(1<<52))*u
		if rng.Intn(2) == 0 {
			x0 = 2*lo - float64(rng.Intn(1<<16)+1)*u
		}
		block := make([]float64, rng.Intn(50)+1)
		ties := rng.Intn(3) == 0
		for i := range block {
			block[i] = charges[rng.Intn(len(charges))]
			if ties && rng.Intn(2) == 0 {
				// An odd multiple of u/2: every addition is a tie.
				block[i] = float64(2*rng.Intn(8)+1) * u / 2
			}
		}
		x1 := x0
		for _, c := range block {
			x1 += c
		}
		k := ExactRepeats(x0, x1, maxK)
		x := x1
		for j := 1; j <= k; j++ {
			for _, c := range block {
				x += c
			}
			if want := x1 + float64(j)*(x1-x0); math.Float64bits(x) != math.Float64bits(want) {
				t.Fatalf("x0 %v, block %v: repeat %d of %d ends at %v, want %v", x0, block, j, k, x, want)
			}
		}
		if k > 0 {
			repeated++
			if ties {
				tieRepeated++
			}
		}
	}
	// The property must have been exercised, ties included.
	if repeated < trials/20 || tieRepeated < trials/200 {
		t.Fatalf("only %d of %d blocks repeated (%d with ties)", repeated, trials, tieRepeated)
	}
}

func TestExactRepeatsEdges(t *testing.T) {
	cases := []struct {
		x0, x1  float64
		n, want int
	}{
		{0, 0, 5, 5},                     // nothing charged repeats forever
		{3, 3, 7, 7},                     // at any sum
		{1, 1.5, 0, 0},                   // nothing asked
		{1, 1.5, 9, 0},                   // 1.5 + 0.5 = 2 leaves [1, 2)
		{1, 1.25, 9, 2},                  // 1.5, 1.75 stay; 2 does not
		{0, 1, 3, 0},                     // crosses from zero
		{1.5, 2.5, 3, 0},                 // crosses a binade
		{2, 1, 3, 0},                     // falls
		{-2, -1.5, 3, 0},                 // negative
		{math.Inf(1), math.Inf(1), 3, 0}, // infinite
		{1, 1 + 0x1p-52, 3, 0},           // odd delta
		{1, 1 + 0x1p-51, 3, 3},           // even delta
	}
	for _, c := range cases {
		if got := ExactRepeats(c.x0, c.x1, c.n); got != c.want {
			t.Errorf("ExactRepeats(%v, %v, %d) = %d, want %d", c.x0, c.x1, c.n, got, c.want)
		}
	}
}

// skipGeometries are the shapes the skip trace runs on: the paper's
// machine, 64-byte lines over a 512 KB L2, and a 16 KB L1 over a 64 KB
// L2, whose period is a quarter of the paper's.
func skipGeometries() []Config {
	tm := PentiumTiming()
	return []Config{
		PentiumConfig(),
		{LineSize: 64, L1Size: 8 << 10, L2Size: 512 << 10, Timing: tm},
		{LineSize: 32, L1Size: 16 << 10, L2Size: 64 << 10, Timing: tm},
	}
}

// periodTrace streams passes of reads, writes, copies and prefetches over
// buffers of periods whole periods, one period per step, so that step i's
// accesses are step 0's moved up i periods. With skip set it marks each
// step and fast-forwards the steps that repeat, as memmodel's period
// iterator does; otherwise it simulates every step. It returns the
// number of steps skipped.
func periodTrace(h *Hierarchy, passes, periods int, skip bool) int {
	p := uint64(h.Period())
	line := uint64(h.Config().LineSize)
	words := int(p / WordSize)
	src := uint64(1 << 22)
	dst := src + uint64(periods)*p + 3*line + 8 // not period- or line-aligned
	step := func(i int) {
		off := uint64(i) * p
		h.ReadRun(src+off, words/2, 4, 1.33)
		h.WriteRun(dst+off, words/4, 4, 1.0)
		h.CopyRun(src+off, dst+off, words, 4, 0.7)
		for a := off; a < off+p; a += 8 * line {
			h.Prefetch(dst + a + 3*line)
		}
	}
	skipped := 0
	for pass := 0; pass < passes; pass++ {
		for i := 0; i < periods; {
			if skip {
				h.Mark()
			}
			step(i)
			i++
			if skip && h.Repeats() {
				k := h.Skip(periods - i)
				skipped += k
				i += k
			}
		}
	}
	return skipped
}

// TestSkipMatchesSimulation runs one streaming trace with skips and once
// simulating every period: both must end with the same ledger bits, Stats
// and residency for every line touched, on every skip geometry and both
// write policies.
func TestSkipMatchesSimulation(t *testing.T) {
	for gi, cfg := range skipGeometries() {
		for _, wa := range []bool{false, true} {
			cfg := cfg
			cfg.WriteAllocate = wa
			t.Run(fmt.Sprintf("geom%d/writeAlloc=%v", gi, wa), func(t *testing.T) {
				const passes, periods = 3, 24
				fast, full := MustNew(cfg), MustNew(cfg)
				skipped := periodTrace(fast, passes, periods, true)
				if periodTrace(full, passes, periods, false) != 0 {
					t.Fatal("the simulating run skipped")
				}
				if skipped == 0 {
					t.Fatal("no period was skipped")
				}
				if fc, sc := fast.Cycles(), full.Cycles(); math.Float64bits(fc) != math.Float64bits(sc) {
					t.Fatalf("cycles: skipping %v, simulating %v", fc, sc)
				}
				if fs, ss := fast.Stats(), full.Stats(); fs != ss {
					t.Fatalf("stats diverge\nskipping:   %+v\nsimulating: %+v", fs, ss)
				}
				end := uint64(1<<22) + uint64(2*periods+2)*uint64(fast.Period())
				for a := uint64(1 << 22); a < end; a += uint64(cfg.LineSize) {
					if fl, sl := fast.Contains(a), full.Contains(a); fl != sl {
						t.Fatalf("Contains(%#x): skipping %d, simulating %d", a, fl, sl)
					}
				}
				t.Logf("skipped %d of %d periods", skipped, passes*periods)
			})
		}
	}
}

// An attributed hierarchy is the per-access reference: it never skips.
func TestAttributedHierarchyNeverSkips(t *testing.T) {
	h := mustRef(PentiumConfig())
	if n := periodTrace(h, 1, 12, true); n != 0 {
		t.Fatalf("attributed hierarchy skipped %d periods", n)
	}
}

// repeats matches each set with its snapshot by recency, not by way: a
// set whose lines sit in the other ways, each moved up one period with
// its dirty bit and in the same recency order, repeats; a changed order,
// dirty bit, line or valid count does not.
func TestRepeatsComparesByRecency(t *testing.T) {
	const p = 4 // line addresses per period
	// way builds a valid way for line address la (keys are la+1 in the
	// first generation) stamped at tick, dirty or not.
	way := func(la, tick uint64, dirty bool) line {
		l := line{key: la + 1, use: tick << 1}
		if dirty {
			l.markDirty()
		}
		return l
	}
	free := line{}
	cases := []struct {
		name      string
		snap, cur [2]line
		want      bool
	}{
		{"same ways", [2]line{way(1, 1, false), way(2, 2, true)}, [2]line{way(1+p, 3, false), way(2+p, 4, true)}, true},
		{"ways swapped", [2]line{way(1, 1, false), way(2, 2, true)}, [2]line{way(2+p, 4, true), way(1+p, 3, false)}, true},
		{"free way swapped", [2]line{free, way(1, 1, false)}, [2]line{way(1+p, 2, false), free}, true},
		{"both free", [2]line{free, free}, [2]line{free, free}, true},
		{"order reversed", [2]line{way(1, 1, false), way(2, 2, false)}, [2]line{way(1+p, 4, false), way(2+p, 3, false)}, false},
		{"dirty bit changed", [2]line{way(1, 1, false), free}, [2]line{way(1+p, 2, true), free}, false},
		{"not moved up", [2]line{way(1, 1, false), free}, [2]line{way(1, 2, false), free}, false},
		{"one more line", [2]line{way(1, 1, false), free}, [2]line{way(1+p, 2, false), way(5+p, 3, false)}, false},
	}
	for _, c := range cases {
		lv := &level{sets: [][2]line{c.cur}}
		if got := lv.repeats([][2]line{c.snap}, p); got != c.want {
			t.Errorf("%s: repeats = %v, want %v", c.name, got, c.want)
		}
	}
}

// A flush between Mark and Repeats drops the snapshot.
func TestFlushDropsMark(t *testing.T) {
	h := MustNew(PentiumConfig())
	h.Mark()
	h.Flush()
	if h.Repeats() || h.Skip(1) != 0 {
		t.Fatal("a snapshot survived Flush")
	}
}
