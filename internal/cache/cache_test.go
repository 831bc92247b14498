package cache

import (
	"testing"
	"testing/quick"
)

func pentium() *Hierarchy { return MustNew(PentiumConfig()) }

func TestReadAllocates(t *testing.T) {
	h := pentium()
	if lvl := h.Contains(0x1000); lvl != 0 {
		t.Fatalf("cold cache Contains = %d, want 0", lvl)
	}
	h.ReadWords(0x1000, 1)
	if lvl := h.Contains(0x1000); lvl != 1 {
		t.Fatalf("after read Contains = %d, want 1 (allocated in L1)", lvl)
	}
	s := h.Stats()
	if s.L1Misses != 1 || s.L2Misses != 1 || s.LinesFilledFromMem != 1 {
		t.Fatalf("miss accounting wrong: %+v", s)
	}
}

func TestReadHitIsCheap(t *testing.T) {
	h := pentium()
	h.ReadWords(0x1000, 1)
	h.ResetCycles()
	h.ReadWords(0x1000, 1)
	if got, want := h.Cycles(), PentiumTiming().WordHit; got != want {
		t.Fatalf("hit cost = %v, want %v", got, want)
	}
}

func TestWriteMissDoesNotAllocate(t *testing.T) {
	h := pentium()
	h.WriteWords(0x2000, 8)
	if lvl := h.Contains(0x2000); lvl != 0 {
		t.Fatalf("no-write-allocate cache allocated on write miss (level %d)", lvl)
	}
	s := h.Stats()
	if s.MemWordWrites != 8 {
		t.Fatalf("MemWordWrites = %d, want 8", s.MemWordWrites)
	}
}

func TestWriteAllocateModeAllocates(t *testing.T) {
	cfg := PentiumConfig()
	cfg.WriteAllocate = true
	h := MustNew(cfg)
	h.WriteWords(0x2000, 1)
	if lvl := h.Contains(0x2000); lvl != 1 {
		t.Fatalf("write-allocate cache did not allocate on write miss (level %d)", lvl)
	}
	// Subsequent writes to the same line must be hits.
	h.ResetCycles()
	h.WriteWords(0x2004, 1)
	if got, want := h.Cycles(), PentiumTiming().WordWriteHit; got != want {
		t.Fatalf("second write cost = %v, want hit cost %v", got, want)
	}
}

func TestWriteHitAfterRead(t *testing.T) {
	h := pentium()
	h.ReadWords(0x3000, 1) // allocate the line
	h.ResetCycles()
	h.WriteWords(0x3000, 1)
	if got, want := h.Cycles(), PentiumTiming().WordWriteHit; got != want {
		t.Fatalf("write-after-read cost = %v, want hit cost %v", got, want)
	}
}

func TestL1EvictionFallsToL2(t *testing.T) {
	h := pentium()
	cfg := h.Config()
	// Read enough distinct lines to overflow L1 but not L2.
	lines := 2 * cfg.L1Size / cfg.LineSize
	for i := 0; i < lines; i++ {
		h.ReadWords(uint64(i*cfg.LineSize), 1)
	}
	// The first line left L1 but must still be in L2 (inclusion).
	if lvl := h.Contains(0); lvl != 2 {
		t.Fatalf("evicted line Contains = %d, want 2", lvl)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	h := pentium()
	cfg := h.Config()
	// Dirty a line, then stream reads over many lines mapping to every set
	// so it is evicted from both levels.
	h.ReadWords(0, 1)
	h.WriteWords(0, 1)
	lines := 4 * cfg.L2Size / cfg.LineSize
	for i := 1; i <= lines; i++ {
		h.ReadWords(uint64(i*cfg.LineSize), 1)
	}
	s := h.Stats()
	if s.L1WriteBacks == 0 {
		t.Error("dirty L1 line evicted with no L1 write-back")
	}
	if s.L2WriteBacks == 0 {
		t.Error("dirty L2 line evicted with no L2 write-back")
	}
	if h.Contains(0) != 0 {
		t.Error("line survived a full-cache streaming eviction")
	}
}

func TestPrefetchFillsLine(t *testing.T) {
	h := pentium()
	h.Prefetch(0x4000)
	if lvl := h.Contains(0x4000); lvl != 1 {
		t.Fatalf("prefetch did not allocate (level %d)", lvl)
	}
	s := h.Stats()
	if s.PrefetchesIssued != 1 || s.PrefetchesUseful != 1 {
		t.Fatalf("prefetch stats wrong: %+v", s)
	}
	// A second prefetch of the same line is issued but not useful.
	h.Prefetch(0x4000)
	s = h.Stats()
	if s.PrefetchesIssued != 2 || s.PrefetchesUseful != 1 {
		t.Fatalf("redundant prefetch stats wrong: %+v", s)
	}
}

func TestFlush(t *testing.T) {
	h := pentium()
	h.ReadWords(0x5000, 4)
	h.Flush()
	if h.Contains(0x5000) != 0 {
		t.Fatal("Flush left lines resident")
	}
}

func TestLRUWithinSet(t *testing.T) {
	cfg := PentiumConfig()
	h := MustNew(cfg)
	// Three lines mapping to the same two-way L1 set (stride = L1 size / 2).
	stride := uint64(cfg.L1Size / 2)
	a, b, c := uint64(0), stride, 2*stride
	h.ReadWords(a, 1)
	h.ReadWords(b, 1)
	h.ReadWords(a, 1) // a is now more recently used than b
	h.ReadWords(c, 1) // must evict b
	if h.Contains(a) != 1 {
		t.Error("LRU evicted the recently used line a")
	}
	if h.Contains(b) == 1 {
		t.Error("LRU kept the least recently used line b in L1")
	}
	if h.Contains(c) != 1 {
		t.Error("newly read line c not resident in L1")
	}
}

func TestBytesAccounting(t *testing.T) {
	h := pentium()
	h.ReadWords(0, 4)
	h.WriteWords(64, 2)
	h.ReadBytes(128, 3)
	h.WriteBytes(256, 5)
	s := h.Stats()
	if s.BytesRead != 16+3 {
		t.Errorf("BytesRead = %d, want 19", s.BytesRead)
	}
	if s.BytesWrit != 8+5 {
		t.Errorf("BytesWrit = %d, want 13", s.BytesWrit)
	}
}

func TestByteWriteMissGoesToMemory(t *testing.T) {
	h := pentium()
	h.WriteBytes(0x6000, 1)
	if h.Contains(0x6000) != 0 {
		t.Fatal("byte write allocated a line under no-write-allocate")
	}
	if s := h.Stats(); s.MemByteWrites != 1 || s.MemWordWrites != 0 {
		t.Fatalf("byte write miss miscounted: %+v", s)
	}
}

// Word and byte write misses must land in their own bus-transaction
// counters: a tail loop's byte stores are not word stores.
func TestMemWriteCountersDistinguishWordsFromBytes(t *testing.T) {
	h := pentium()
	h.WriteWords(0x6000, 3) // 3 word transactions
	h.WriteBytes(0x7000, 5) // 5 byte transactions
	s := h.Stats()
	if s.MemWordWrites != 3 {
		t.Errorf("MemWordWrites = %d, want 3", s.MemWordWrites)
	}
	if s.MemByteWrites != 5 {
		t.Errorf("MemByteWrites = %d, want 5", s.MemByteWrites)
	}
	// The run-length word entry point must count identically.
	h2 := pentium()
	h2.WriteRun(0x6000, 3, 0, 0)
	h2.WriteBytes(0x7000, 5)
	if s2 := h2.Stats(); s2.MemWordWrites != 3 || s2.MemByteWrites != 5 {
		t.Errorf("run-length counters: %+v, want MemWordWrites=3 MemByteWrites=5", s2)
	}
}

// An L2 eviction takes its victim out of L1 too, from either way, and a
// dirty L1 copy makes the eviction a write-back (inclusion). Lines b,
// b+128 KB and b+256 KB share an L1 set and an L2 set; a line 4 KB below
// b shares only the L1 set, and reading it first puts b in L1's way 1.
// Re-reading or writing b makes it L1's more recent line of the set while
// it stays L2's less recent, so b is L2's victim but not L1's.
func TestL2EvictionLeavesL1(t *testing.T) {
	const b, l2Period = 0x10000, 128 << 10
	for _, c := range []struct {
		name        string
		way1, dirty bool
	}{
		{"way 0, clean", false, false},
		{"way 0, dirty", false, true},
		{"way 1, clean", true, false},
		{"way 1, dirty", true, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := pentium()
			if c.way1 {
				h.ReadWords(b-4<<10, 1)
			}
			h.ReadWords(b, 1)
			h.ReadWords(b+l2Period, 1)
			if c.dirty {
				h.WriteWords(b, 1)
			} else {
				h.ReadWords(b, 1)
			}
			h.ReadWords(b+2*l2Period, 1)
			if lvl := h.Contains(b); lvl != 0 {
				t.Errorf("L2's victim is at level %d, want evicted from both", lvl)
			}
			for _, a := range []uint64{b + l2Period, b + 2*l2Period} {
				if lvl := h.Contains(a); lvl != 1 {
					t.Errorf("Contains(%#x) = %d, want 1", a, lvl)
				}
			}
			want := uint64(0)
			if c.dirty {
				want = 1
			}
			if got := h.Stats().L2WriteBacks; got != want {
				t.Errorf("L2WriteBacks = %d, want %d", got, want)
			}
		})
	}
}

func TestWriteHitInL2Only(t *testing.T) {
	h := pentium()
	cfg := h.Config()
	// Put a line in both levels, then evict it from L1 only.
	h.ReadWords(0, 1)
	lines := 2 * cfg.L1Size / cfg.LineSize
	for i := 1; i <= lines; i++ {
		h.ReadWords(uint64(i*cfg.LineSize), 1)
	}
	if h.Contains(0) != 2 {
		t.Skip("layout did not leave line 0 in L2 only; adjust test")
	}
	h.ResetCycles()
	h.WriteWords(0, 1)
	if got, want := h.Cycles(), PentiumTiming().L2WordAccess; got != want {
		t.Fatalf("L2 write-hit cost = %v, want %v", got, want)
	}
	// The write must not promote the line to L1.
	if h.Contains(0) != 2 {
		t.Fatal("write promoted line to L1 under no-write-allocate")
	}
}

func TestAddCyclesNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddCycles(-1) did not panic")
		}
	}()
	pentium().AddCycles(-1)
}

func TestNewRejectsBadGeometry(t *testing.T) {
	cases := []Config{
		{LineSize: 32, L1Size: 8 << 10, L2Size: 4 << 10}, // L1 >= L2
		{LineSize: 32, L1Size: 0, L2Size: 256 << 10},
		{LineSize: 32, L1Size: 8<<10 + 32, L2Size: 256 << 10},
		{LineSize: 32, L1Size: 3 * 64, L2Size: 256 << 10}, // three sets
		// Power-of-two set counts (4 and 64) but a 48-byte line, which the
		// shift-based line addressing cannot represent.
		{LineSize: 48, L1Size: 384, L2Size: 6144, Timing: PentiumTiming()},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: New(%+v) did not return an error", i, cfg)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: MustNew(%+v) did not panic", i, cfg)
				}
			}()
			MustNew(cfg)
		}()
	}
}

func TestCyclesMonotonic(t *testing.T) {
	h := pentium()
	prev := h.Cycles()
	ops := []func(){
		func() { h.ReadWords(0, 8) },
		func() { h.WriteWords(4096, 8) },
		func() { h.ReadBytes(8192, 7) },
		func() { h.WriteBytes(12288, 7) },
		func() { h.Prefetch(16384) },
	}
	for i, op := range ops {
		op()
		if h.Cycles() <= prev {
			t.Fatalf("op %d did not consume cycles", i)
		}
		prev = h.Cycles()
	}
}

// Property: after reading any address, the line is resident in L1, and
// inclusion holds (anything in L1 is also in L2).
func TestInclusionProperty(t *testing.T) {
	f := func(addrs []uint32) bool {
		h := pentium()
		for _, a := range addrs {
			addr := uint64(a) % (64 << 20)
			h.ReadWords(addr, 1)
			if h.Contains(addr) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: hits + misses at L1 equals the number of word/byte accesses
// that consult L1 (reads and prefetches and write lookups).
func TestHitMissAccountingProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		h := pentium()
		var consults uint64
		for _, o := range ops {
			addr := uint64(o) * 8
			switch o % 3 {
			case 0:
				h.ReadWords(addr, 1)
			case 1:
				h.WriteWords(addr, 1)
			case 2:
				h.Prefetch(addr)
			}
			consults++
		}
		s := h.Stats()
		return s.L1Hits+s.L1Misses == consults
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
