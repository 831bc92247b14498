package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// The differential property test: the line-granular fast path (Hierarchy's
// run-length entry points) must be indistinguishable from the per-access
// reference model (a Hierarchy with a CycleBreakdown attached, which runs
// every run call through runChunks and the per-access loops) — identical
// float64 cycle ledgers, identical Stats, identical residency — on
// randomized mixed traces over varied geometries and both write-allocate
// policies. The reference is the source of truth (DESIGN.md §8.1); any
// divergence is a fast-path bug.

// mustRef builds the reference model: MustNew(cfg) with a breakdown
// attached.
func mustRef(cfg Config) *Hierarchy {
	h := MustNew(cfg)
	h.AttachBreakdown(new(CycleBreakdown))
	return h
}

// diffGeometries returns the cache geometries the trace replay sweeps:
// the paper's machine plus small, skewed and direct-mapped shapes that
// stress set conflicts, line-boundary handling and inclusion victims.
func diffGeometries() []Config {
	tiny := Timing{
		WordHit: 1, WordWriteHit: 0.85, ByteOp: 2.5, L2WordAccess: 2,
		L1FillFromL2: 18.4, FillFromMem: 13.6, MemWordWrite: 8.5,
		MemByteWrite: 8.5, L1WriteBack: 4, L2WriteBack: 16, PrefetchIssue: 0.8,
	}
	return []Config{
		PentiumConfig(),
		{LineSize: 16, L1Size: 1 << 10, L1Assoc: 1, L2Size: 8 << 10, L2Assoc: 2, Timing: tiny},
		{LineSize: 32, L1Size: 2 << 10, L1Assoc: 4, L2Size: 16 << 10, L2Assoc: 1, Timing: tiny},
		{LineSize: 64, L1Size: 4 << 10, L1Assoc: 2, L2Size: 64 << 10, L2Assoc: 4, Timing: tiny},
	}
}

// replayRandomTrace drives fast and ref with an identical random op
// sequence and compares ledger, stats and residency after every op. It
// also holds the reference's breakdown total to its ledger: a run entry
// point that skips the per-access decomposition under attribution charges
// cycles no bucket sees, so it fails here rather than passing as its own
// reference.
func replayRandomTrace(t *testing.T, cfg Config, seed int64, ops int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	fast := MustNew(cfg)
	ref := mustRef(cfg)
	// Keep the footprint a few multiples of L2 so hits, misses and
	// evictions all occur; odd base for unaligned runs.
	region := uint64(4 * cfg.L2Size)
	loops := []float64{0, 0.7, 1.0, 1.33}
	chunks := []int{0, 1, 3, 4, 8}
	for op := 0; op < ops; op++ {
		addr := rng.Uint64() % region
		n := rng.Intn(4*cfg.LineSize/WordSize) + 1
		cw := chunks[rng.Intn(len(chunks))]
		cl := loops[rng.Intn(len(loops))]
		kind := rng.Intn(11)
		flush := kind == 9 && rng.Intn(16) == 0
		// Second address for copy runs: usually disjoint, sometimes
		// overlapping or set-conflicting with the first.
		addr2 := rng.Uint64() % region
		if rng.Intn(4) == 0 {
			addr2 = addr + uint64(rng.Intn(2*cfg.LineSize))
		}
		apply := func(s *Hierarchy) {
			switch kind {
			case 0, 1:
				s.ReadRun(addr, n, cw, cl)
			case 2, 3:
				s.WriteRun(addr, n, cw, cl)
			case 4:
				s.ReadBytes(addr, n)
			case 5:
				s.WriteBytes(addr, n)
			case 6:
				s.ReadWords(addr, n)
			case 7:
				s.WriteWords(addr, n)
			case 8:
				s.Prefetch(addr)
			case 9:
				if flush {
					s.Flush()
				} else {
					s.AddCycles(cl)
				}
			case 10:
				s.CopyRun(addr, addr2, n, cw, cl)
			}
		}
		// The rng must feed both replays identically: decide the op once,
		// apply it twice.
		apply(fast)
		apply(ref)
		if fc, rc := fast.Cycles(), ref.Cycles(); fc != rc {
			t.Fatalf("op %d (kind %d, addr %#x, n %d, chunk %d, loop %v): cycles fast=%v ref=%v",
				op, kind, addr, n, cw, cl, fc, rc)
		}
		if fs, rs := fast.Stats(), ref.Stats(); fs != rs {
			t.Fatalf("op %d (kind %d, addr %#x, n %d): stats diverge\nfast: %+v\nref:  %+v",
				op, kind, addr, n, fs, rs)
		}
		// The buckets sum the same charges as the ledger but grouped by
		// kind, so the totals agree to float re-association, not bit-exactly.
		if total, cyc := ref.attr.Total(), ref.Cycles(); !closeEnough(total, cyc) {
			t.Fatalf("op %d (kind %d, addr %#x, n %d): reference breakdown total %v != cycles %v (breakdown %+v)",
				op, kind, addr, n, total, cyc, *ref.attr)
		}
	}
	// Residency must agree line by line across the whole touched region.
	for a := uint64(0); a < region; a += uint64(cfg.LineSize) {
		if fl, rl := fast.Contains(a), ref.Contains(a); fl != rl {
			t.Fatalf("Contains(%#x): fast=%d ref=%d", a, fl, rl)
		}
	}
}

func TestDifferentialFastVsRef(t *testing.T) {
	for gi, cfg := range diffGeometries() {
		for _, wa := range []bool{false, true} {
			cfg := cfg
			cfg.WriteAllocate = wa
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("geom%d/writeAlloc=%v/seed%d", gi, wa, seed)
				t.Run(name, func(t *testing.T) {
					ops := 4000
					if testing.Short() {
						ops = 800
					}
					replayRandomTrace(t, cfg, seed*7919+int64(gi), ops)
				})
			}
		}
	}
}

// The run-length entry points must also agree with the per-access loops on
// directed edge cases: zero-length runs, runs starting mid-line, runs
// ending exactly on a line boundary, and partial trailing chunks.
func TestRunEntryPointEdgeCases(t *testing.T) {
	cfg := PentiumConfig()
	cases := []struct {
		name string
		run  func(s *Hierarchy)
	}{
		{"empty read run", func(s *Hierarchy) { s.ReadRun(0x1000, 0, 4, 1.33) }},
		{"empty write run", func(s *Hierarchy) { s.WriteRun(0x1000, 0, 4, 1.33) }},
		{"mid-line start", func(s *Hierarchy) { s.ReadRun(0x101c, 16, 4, 1.33) }},
		{"unaligned word addresses", func(s *Hierarchy) { s.ReadRun(0x1003, 16, 4, 1.0); s.WriteRun(0x2005, 16, 4, 1.0) }},
		{"line-boundary end", func(s *Hierarchy) { s.WriteRun(0x1000, 8, 4, 0.7) }},
		{"partial trailing chunk", func(s *Hierarchy) { s.ReadRun(0x1000, 10, 4, 1.33) }},
		{"chunk larger than line", func(s *Hierarchy) { s.WriteRun(0x3000, 64, 32, 2.0) }},
		{"empty copy run", func(s *Hierarchy) { s.CopyRun(0x1000, 0x5000, 0, 4, 1.0) }},
		{"disjoint copy run", func(s *Hierarchy) { s.CopyRun(0x1000, 0x5000, 32, 4, 1.0) }},
		{"copy run, same line src and dst", func(s *Hierarchy) { s.CopyRun(0x1000, 0x1010, 8, 4, 1.0) }},
		{"copy run, set-conflicting streams", func(s *Hierarchy) { s.CopyRun(0x1000, 0x1000+8<<10, 32, 4, 1.0) }},
		{"copy run, unaligned partial chunk", func(s *Hierarchy) { s.CopyRun(0x1006, 0x5002, 10, 4, 0.7) }},
		{"copy run, single chunk no loop", func(s *Hierarchy) { s.CopyRun(0x1000, 0x5000, 16, 0, 0) }},
	}
	for _, wa := range []bool{false, true} {
		cfg.WriteAllocate = wa
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/writeAlloc=%v", c.name, wa), func(t *testing.T) {
				fast, ref := MustNew(cfg), mustRef(cfg)
				// Pre-warm part of the footprint so hits and misses mix.
				for _, s := range []*Hierarchy{fast, ref} {
					s.ReadWords(0x1000, 8)
					c.run(s)
				}
				if fast.Cycles() != ref.Cycles() {
					t.Errorf("cycles fast=%v ref=%v", fast.Cycles(), ref.Cycles())
				}
				if fast.Stats() != ref.Stats() {
					t.Errorf("stats diverge\nfast: %+v\nref:  %+v", fast.Stats(), ref.Stats())
				}
			})
		}
	}
}

// A negative chunk-loop charge is a programming error on both paths.
func TestRunNegativeLoopPanics(t *testing.T) {
	for name, s := range map[string]*Hierarchy{"fast": MustNew(PentiumConfig()), "ref": mustRef(PentiumConfig())} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("ReadRun with negative loop charge did not panic")
				}
			}()
			s.ReadRun(0, 8, 4, -1)
		})
	}
}

// closeEnough compares two cycle totals up to float re-association error.
func closeEnough(a, b float64) bool {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	scale := a
	if scale < 0 {
		scale = -scale
	}
	if scale < 1 {
		scale = 1
	}
	return diff <= 1e-9*scale
}

// TestBreakdownAttribution holds the attribution contract on seeds of its
// own: attaching a breakdown never changes the ledger or Stats, and the
// breakdown's Total tracks the ledger. With one cache model these are the
// differential replay's checks, detached against attributed.
func TestBreakdownAttribution(t *testing.T) {
	for gi, cfg := range diffGeometries() {
		for _, wa := range []bool{false, true} {
			cfg := cfg
			cfg.WriteAllocate = wa
			t.Run(fmt.Sprintf("geom%d/writeAlloc=%v", gi, wa), func(t *testing.T) {
				ops := 2000
				if testing.Short() {
					ops = 400
				}
				replayRandomTrace(t, cfg, int64(gi)*104729+7, ops)
			})
		}
	}
}

// The differential guarantee extends to the obs metric fold: identical
// Stats must fold to identical (and Equal) registry snapshots.
func TestDifferentialMetricSnapshots(t *testing.T) {
	cfg := PentiumConfig()
	fast, ref := MustNew(cfg), mustRef(cfg)
	for _, s := range []*Hierarchy{fast, ref} {
		s.ReadRun(0x1000, 4096, 4, 1.33)
		s.WriteRun(0x9000, 4096, 4, 1.0)
		s.CopyRun(0x1000, 0x40000, 2048, 4, 1.33)
		s.ReadBytes(0x5001, 100)
		s.Prefetch(0x80000)
	}
	fr, rr := obs.NewRegistry(), obs.NewRegistry()
	fast.Stats().FoldStats(fr, "cache.")
	ref.Stats().FoldStats(rr, "cache.")
	fs, rs := fr.Snapshot(), rr.Snapshot()
	if !reflect.DeepEqual(fs, rs) {
		t.Fatalf("metric snapshots diverge\nfast: %v\nref:  %v", fs, rs)
	}
	if v, ok := fs.Get("cache.l1_misses"); !ok || v == 0 {
		t.Fatalf("expected nonzero cache.l1_misses, got %v %v", v, ok)
	}
}

func TestBreakdownResetAndDetach(t *testing.T) {
	h := MustNew(PentiumConfig())
	var b CycleBreakdown
	h.AttachBreakdown(&b)
	h.ReadWords(0x1000, 64)
	if b.Total() != h.Cycles() {
		t.Fatalf("total %v != cycles %v", b.Total(), h.Cycles())
	}
	if b.L1 == 0 || b.L2 == 0 || b.Mem == 0 {
		t.Fatalf("cold-read breakdown should touch L1, L2 and memory: %+v", b)
	}
	h.ResetCycles()
	if b.Total() != 0 || h.Cycles() != 0 {
		t.Fatalf("ResetCycles must zero the attached breakdown: %+v", b)
	}
	h.AttachBreakdown(nil)
	h.ReadWords(0x2000, 64)
	if b.Total() != 0 {
		t.Fatalf("detached breakdown must not accumulate: %+v", b)
	}
}
