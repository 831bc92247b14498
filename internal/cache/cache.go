// Package cache simulates the Pentium P54C's two-level cache hierarchy.
//
// The paper's central memory-system finding (§6) is that the P54C has no
// write-allocate cache: a write that misses does not bring the line into the
// cache, so it travels to the next level of the hierarchy as an individual
// bus transaction. Reads, by contrast, allocate lines normally. This package
// implements exactly that mechanism with two-way set-associative,
// write-back, LRU-replacement L1 and L2 caches in an inclusive hierarchy,
// and charges a calibrated cycle cost for every access. The memory-routine
// models in package memmodel run on top of it, and the paper's Figures 2
// through 8 — the 8 KB and 256 KB plateaus, the flat sub-50 MB/s memset
// curve, and the dramatic effect of software prefetching — all emerge from
// this model.
package cache

import (
	"fmt"
	"math/bits"
)

// WordSize is the access granularity of the memory routines, in bytes.
const WordSize = 4

// Timing holds the cycle costs charged for each kind of access. The defaults
// in PentiumTiming are calibrated so the sweep plateaus land where the paper
// measured them (≈300 MB/s from L1, ≈110 MB/s from L2, ≈75 MB/s from memory
// for reads; ≈45 MB/s for non-allocated writes).
type Timing struct {
	// WordHit is the cost of a 4-byte load that hits in L1.
	WordHit float64
	// WordWriteHit is the cost of a 4-byte store that hits in L1. Stores
	// pair slightly better than loads in the P54C's U/V pipes.
	WordWriteHit float64
	// ByteOp is the cost of a 1-byte load or store that hits in L1. The
	// benchmarks' tail loops process leftover bytes one at a time, and this
	// (deliberately inefficient) cost reproduces the §6.4 dips.
	ByteOp float64
	// L2WordAccess is the cost of a word store serviced by L2 when the line
	// is present in L2 but not in L1 (writes do not promote to L1).
	L2WordAccess float64
	// L1FillFromL2 is the cost to fill a line into L1 from L2.
	L1FillFromL2 float64
	// FillFromMem is the additional cost when the fill must come from main
	// memory rather than L2.
	FillFromMem float64
	// MemWordWrite is the cost of a 4-byte write that misses both caches
	// and becomes an individual bus transaction (no write-allocate).
	MemWordWrite float64
	// MemByteWrite is the cost of a 1-byte write that misses both caches.
	MemByteWrite float64
	// L1WriteBack is the cost of writing a dirty L1 line back into L2.
	L1WriteBack float64
	// L2WriteBack is the cost of bursting a dirty L2 line to memory.
	L2WriteBack float64
	// PrefetchIssue is the cost of issuing one software-prefetch touch
	// (a load whose value is discarded) when the line already resides in L1.
	PrefetchIssue float64
}

// PentiumTiming returns the calibrated timing for the paper's 100 MHz P54C.
func PentiumTiming() Timing {
	return Timing{
		WordHit:       1.0,
		WordWriteHit:  0.85,
		ByteOp:        2.5,
		L2WordAccess:  2.0,
		L1FillFromL2:  18.4,
		FillFromMem:   13.6,
		MemWordWrite:  8.5,
		MemByteWrite:  8.5,
		L1WriteBack:   4.0,
		L2WriteBack:   16.0,
		PrefetchIssue: 0.8,
	}
}

// Config describes a two-level hierarchy. Both levels are two-way
// set-associative: the P54C's L1 is, and the paper's 256 KB L2 is modelled
// two-way to avoid pathological conflict artefacts that the real
// benchmarks' allocator layout avoided.
type Config struct {
	// LineSize is the cache line size in bytes (32 on the P54C).
	LineSize int
	// L1Size is the L1 data cache's size in bytes (8 KB).
	L1Size int
	// L2Size is the L2 cache's size in bytes (256 KB on the paper's board).
	L2Size int
	// WriteAllocate selects the write-miss policy. False on the P54C; the
	// write-allocate ablation (DESIGN.md A1) sets it true.
	WriteAllocate bool
	// Timing is the cycle-cost table.
	Timing Timing
}

// PentiumConfig returns the paper platform's hierarchy: 8 KB L1, 256 KB
// L2, 32-byte lines, no write-allocate.
func PentiumConfig() Config {
	return Config{
		LineSize:      32,
		L1Size:        8 << 10,
		L2Size:        256 << 10,
		WriteAllocate: false,
		Timing:        PentiumTiming(),
	}
}

// Stats counts the traffic observed at each level. Word and byte stores
// that miss both caches are tracked separately (MemWordWrites vs
// MemByteWrites) so tail-loop bus traffic is distinguishable from the
// main-loop word traffic.
type Stats struct {
	L1Hits, L1Misses     uint64
	L2Hits, L2Misses     uint64
	MemWordWrites        uint64 // non-allocated 4-byte writes to memory
	MemByteWrites        uint64 // non-allocated 1-byte writes to memory
	L1WriteBacks         uint64 // dirty L1 lines pushed to L2
	L2WriteBacks         uint64 // dirty L2 lines pushed to memory
	PrefetchesIssued     uint64
	PrefetchesUseful     uint64 // prefetches that actually filled a line
	LinesFilledFromL2    uint64
	LinesFilledFromMem   uint64
	BytesRead, BytesWrit uint64
}

// line is one cache way. key holds the level's current generation base
// plus the line address plus one; any smaller value (zero, or a key
// stamped under an earlier generation) marks the way invalid, so a probe
// tests presence, tag and generation with one comparison.
//
// use packs the LRU timestamp (shifted left one) with the dirty flag in
// the low bit, keeping a way at 16 bytes — the probes stream these
// arrays through the host's own caches, so size is speed. Timestamps are
// unique within a level, so comparing packed values orders ways exactly
// as comparing raw timestamps would, dirty bits notwithstanding.
type line struct {
	key uint64
	use uint64 // tick<<1 | dirty
}

// markDirty sets the dirty flag without disturbing the LRU stamp.
func (l *line) markDirty() { l.use |= 1 }

// isDirty reads the dirty flag.
func (l *line) isDirty() bool { return l.use&1 != 0 }

// level is one two-way set-associative, write-back cache array, the
// paper's machine at both levels. A set is a [2]line, so one bounds
// check on the set index covers both ways, and construction is a single
// allocation (the sweeps build a fresh hierarchy per point, so
// construction cost is hot too).
type level struct {
	sets     [][2]line
	setShift uint
	setMask  uint64
	tick     uint64
	// genBase is the current generation shifted into the bits above any
	// 32-bit line address. Stored keys are genBase + lineAddr + 1, so
	// bumping genBase by 1<<32 invalidates every line in O(1) — no key
	// from an earlier generation can equal a current-generation key, and
	// victim choice treats key <= genBase as a free way. Because the
	// added bits sit entirely above setMask, set indexing is unchanged.
	genBase uint64
}

func newLevel(size, lineSize int) (*level, error) {
	if size <= 0 || lineSize <= 0 {
		return nil, fmt.Errorf("cache: sizes must be positive (size %d, line %d)", size, lineSize)
	}
	if lineSize&(lineSize-1) != 0 {
		return nil, fmt.Errorf("cache: line size %d must be a power of two", lineSize)
	}
	if size%(2*lineSize) != 0 {
		return nil, fmt.Errorf("cache: size %d not divisible into two ways of %d-byte lines", size, lineSize)
	}
	nsets := size / (2 * lineSize)
	if nsets&(nsets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d must be a power of two", nsets)
	}
	return &level{
		sets:     make([][2]line, nsets),
		setShift: uint(bits.TrailingZeros(uint(lineSize))),
		setMask:  uint64(nsets - 1),
	}, nil
}

// touch replays the LRU bump a per-access hit on l would perform.
func (lv *level) touch(l *line) {
	lv.tick++
	l.use = lv.tick<<1 | l.use&1
}

// lookup finds the line containing addr and bumps its LRU stamp. It
// returns the way or nil. The bump is touch written out, which keeps
// lookup within the compiler's inlining budget.
func (lv *level) lookup(addr uint64) *line {
	la := addr >> lv.setShift
	key := lv.genBase + la + 1
	s := &lv.sets[la&lv.setMask]
	w := &s[0]
	if w.key != key {
		w = &s[1]
		if w.key != key {
			return nil
		}
	}
	lv.tick++
	w.use = lv.tick<<1 | w.use&1
	return w
}

// insert places the line containing addr, which must not be resident,
// into its set: in the first free way, otherwise in the least recently
// used (ties to way 0). It returns the new line and the victim line's
// (tag, dirty) if a valid line was evicted.
func (lv *level) insert(addr uint64) (l *line, victimTag uint64, victimDirty, evicted bool) {
	la := addr >> lv.setShift
	if la >= 1<<32 {
		panic("cache: line address exceeds 32 bits")
	}
	gb := lv.genBase
	s := &lv.sets[la&lv.setMask]
	l = &s[0]
	if l.key > gb && (s[1].key <= gb || s[1].use < l.use) {
		l = &s[1]
	}
	// l.key-gb-1 underflows for an invalid way; evicted=false guards it.
	victimTag, victimDirty, evicted = l.key-gb-1, l.isDirty(), l.key > gb
	lv.tick++
	*l = line{key: gb + la + 1, use: lv.tick << 1}
	return l, victimTag, victimDirty, evicted
}

// invalidate drops the line containing the given line address, reporting
// whether it was present and dirty.
func (lv *level) invalidate(lineAddr uint64) (wasDirty, wasPresent bool) {
	key := lv.genBase + lineAddr + 1
	s := &lv.sets[lineAddr&lv.setMask]
	for i := range s {
		if w := &s[i]; w.key == key {
			wasDirty = w.isDirty()
			*w = line{}
			return wasDirty, true
		}
	}
	return false, false
}

// flush invalidates every line in O(1) by advancing the generation: all
// stored keys fall at or below the new genBase, which victim choice
// treats as a free way, indistinguishable from a zeroed array. Line
// addresses fit in 32 bits (insert enforces it), so generations never
// collide.
func (lv *level) flush() {
	lv.genBase += 1 << 32
}

// Hierarchy is the full two-level cache model. It accumulates a cycle count
// as accesses are simulated; callers read and reset the counter.
//
// Hierarchy is not safe for concurrent use.
type Hierarchy struct {
	cfg    Config
	l1, l2 *level
	cycles float64
	stats  Stats
	// attr, when non-nil, receives a per-bucket copy of every cycle
	// charged (see AttachBreakdown in obs.go). The run-length fast paths
	// divert to the per-access decomposition while it is attached, which
	// makes an attributed Hierarchy the reference model (DESIGN.md §8.1).
	attr *CycleBreakdown
	// words and bytes are the per-access loops' two access widths (4-byte
	// words, single bytes), fixed by New from cfg.Timing. Keeping them
	// here lets the one-line ReadWords/WriteWords wrappers inline into
	// the runs' attributed branches.
	words, bytes width
	// snap is the period snapshot Mark takes and Repeats and Skip read
	// (skip.go).
	snap periodSnap
}

// New builds a hierarchy from cfg. Invalid geometry — non-positive
// sizes, a non-power-of-two line size or set count, L1 at least as
// large as L2 — is a returned error, so a malformed machine description
// from a flag or a config file surfaces as a message, not a panic.
func New(cfg Config) (*Hierarchy, error) {
	if cfg.L1Size >= cfg.L2Size {
		return nil, fmt.Errorf("cache: L1 (%d) must be smaller than L2 (%d)", cfg.L1Size, cfg.L2Size)
	}
	l1, err := newLevel(cfg.L1Size, cfg.LineSize)
	if err != nil {
		return nil, fmt.Errorf("L1: %w", err)
	}
	l2, err := newLevel(cfg.L2Size, cfg.LineSize)
	if err != nil {
		return nil, fmt.Errorf("L2: %w", err)
	}
	h := &Hierarchy{cfg: cfg, l1: l1, l2: l2}
	t := &h.cfg.Timing
	h.words = width{WordSize, t.WordHit, t.WordWriteHit, t.MemWordWrite, &h.stats.MemWordWrites}
	h.bytes = width{1, t.ByteOp, t.ByteOp, t.MemByteWrite, &h.stats.MemByteWrites}
	return h, nil
}

// MustNew is New for the compiled-in machine descriptions, whose
// validity is a compile-time fact.
func MustNew(cfg Config) *Hierarchy {
	h, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Cycles returns the cycles consumed since the last ResetCycles.
func (h *Hierarchy) Cycles() float64 { return h.cycles }

// ResetCycles zeroes the cycle counter (statistics are kept). An attached
// breakdown is zeroed with it, preserving the Total() == Cycles()
// identity.
func (h *Hierarchy) ResetCycles() {
	h.cycles = 0
	if h.attr != nil {
		*h.attr = CycleBreakdown{}
	}
}

// AddCycles charges extra cycles against the hierarchy's ledger. Callers
// use it for loop and ALU overhead that accompanies the memory accesses.
func (h *Hierarchy) AddCycles(c float64) {
	if c < 0 {
		panic("cache: negative cycle charge")
	}
	h.cycles += c
	if h.attr != nil {
		h.attr.Overhead += c
	}
}

// Stats returns a copy of the traffic counters.
func (h *Hierarchy) Stats() Stats { return h.stats }

// ResetStats zeroes the traffic counters.
func (h *Hierarchy) ResetStats() { h.stats = Stats{} }

// Flush invalidates every line in both levels without writing anything back,
// modelling a cold start. It also drops a Mark snapshot.
func (h *Hierarchy) Flush() {
	h.l1.flush()
	h.l2.flush()
	h.snap.marked = false
}

// fill brings the line containing addr into L1 (and L2, maintaining
// inclusion), charging fill and write-back costs, and returns the L1 line
// it placed, saving callers a re-scan. It assumes the line is not already
// in L1.
func (h *Hierarchy) fill(addr uint64) *line {
	t := &h.cfg.Timing
	if h.l2.lookup(addr) != nil {
		h.stats.L2Hits++
		h.cycles += t.L1FillFromL2
		h.stats.LinesFilledFromL2++
		if h.attr != nil {
			h.attr.L2 += t.L1FillFromL2
		}
	} else {
		// Allocated in L2 (inclusive hierarchy).
		_, vt, vd, ev := h.l2.insert(addr)
		h.stats.L2Misses++
		h.cycles += t.L1FillFromL2 + t.FillFromMem
		h.stats.LinesFilledFromMem++
		if h.attr != nil {
			h.attr.L2 += t.L1FillFromL2
			h.attr.Mem += t.FillFromMem
		}
		if ev {
			// Maintain inclusion: the victim must leave L1 too.
			l1dirty, present := h.l1.invalidate(vt)
			if present && l1dirty {
				vd = true
			}
			if vd {
				h.cycles += t.L2WriteBack
				h.stats.L2WriteBacks++
				if h.attr != nil {
					h.attr.WriteBack += t.L2WriteBack
				}
			}
		}
	}
	l, vt, vd, ev := h.l1.insert(addr)
	if ev && vd {
		// Dirty L1 victim goes down to L2; mark the L2 copy dirty.
		h.cycles += t.L1WriteBack
		h.stats.L1WriteBacks++
		if h.attr != nil {
			h.attr.WriteBack += t.L1WriteBack
		}
		if l2line := h.l2.lookup(vt << h.l2.setShift); l2line != nil {
			l2line.markDirty()
		} else {
			// Inclusion was broken by an L2 eviction between the L1 fill
			// and now; burst the line to memory.
			h.cycles += t.L2WriteBack
			h.stats.L2WriteBacks++
			if h.attr != nil {
				h.attr.WriteBack += t.L2WriteBack
			}
		}
	}
	return l
}

// width is one access size of the per-access loops: its byte count,
// the cycles a load, an L1 store hit and a memory store cost at that
// size, and the counter a memory store bumps. A store absorbed by an
// L2-resident line costs L2WordAccess at either size.
type width struct {
	size                     uint64
	load, storeHit, memStore float64
	memWrites                *uint64
}

// ReadWords simulates n consecutive 4-byte loads starting at addr.
func (h *Hierarchy) ReadWords(addr uint64, n int) { h.load(addr, n, &h.words) }

// WriteWords simulates n consecutive 4-byte stores starting at addr.
func (h *Hierarchy) WriteWords(addr uint64, n int) { h.store(addr, n, &h.words) }

// ReadBytes simulates n consecutive 1-byte loads starting at addr (the
// benchmarks' tail loop).
func (h *Hierarchy) ReadBytes(addr uint64, n int) { h.load(addr, n, &h.bytes) }

// WriteBytes simulates n consecutive 1-byte stores starting at addr.
func (h *Hierarchy) WriteBytes(addr uint64, n int) { h.store(addr, n, &h.bytes) }

// load is the per-access load loop: every load pays its L1 cost, and a
// miss fills the line.
func (h *Hierarchy) load(addr uint64, n int, w *width) {
	h.stats.BytesRead += uint64(n) * w.size
	for i := 0; i < n; i++ {
		a := addr + uint64(i)*w.size
		h.cycles += w.load
		if h.attr != nil {
			h.attr.L1 += w.load
		}
		if h.l1.lookup(a) != nil {
			h.stats.L1Hits++
			continue
		}
		h.stats.L1Misses++
		h.fill(a)
	}
}

// store is the per-access store loop: an L1 hit dirties the line, and a
// miss either fills it (write-allocate) or goes on to L2 or memory
// without allocating (the P54C).
func (h *Hierarchy) store(addr uint64, n int, w *width) {
	t := &h.cfg.Timing
	h.stats.BytesWrit += uint64(n) * w.size
	for i := 0; i < n; i++ {
		a := addr + uint64(i)*w.size
		if l := h.l1.lookup(a); l != nil {
			h.stats.L1Hits++
			h.cycles += w.storeHit
			if h.attr != nil {
				h.attr.L1 += w.storeHit
			}
			l.markDirty()
			continue
		}
		h.stats.L1Misses++
		if h.cfg.WriteAllocate {
			// Write-allocate: fill the line, then the store hits.
			h.fill(a)
			h.cycles += w.storeHit
			if h.attr != nil {
				h.attr.L1 += w.storeHit
			}
			if l := h.l1.lookup(a); l != nil {
				l.markDirty()
			}
			continue
		}
		// No write-allocate: the store bypasses L1. It may still hit L2.
		if l2 := h.l2.lookup(a); l2 != nil {
			h.stats.L2Hits++
			h.cycles += t.L2WordAccess
			if h.attr != nil {
				h.attr.L2 += t.L2WordAccess
			}
			l2.markDirty()
			continue
		}
		h.stats.L2Misses++
		h.cycles += w.memStore
		*w.memWrites++
		if h.attr != nil {
			h.attr.Mem += w.memStore
		}
	}
}

// lineRun returns how many of the n accesses starting at addr with the
// given stride begin inside the cache line containing addr. The model
// classifies an access by its start address, so this is the length of the
// prefix that resolves against a single tag.
func (h *Hierarchy) lineRun(addr uint64, n, stride int) int {
	lineEnd := (addr | uint64(h.cfg.LineSize-1)) + 1
	k := int((lineEnd - addr + uint64(stride) - 1) / uint64(stride))
	if k > n {
		k = n
	}
	return k
}

// checkRun validates the chunked-loop parameters shared by the run-length
// entry points.
func checkRun(chunkWords int, chunkLoop float64) {
	if chunkWords > 0 && chunkLoop < 0 {
		panic("cache: negative chunk-loop charge")
	}
}

// runChunks replays the chunked loop structure of a run through a
// per-access body: chunkLoop cycles charged before every chunkWords
// accesses, exactly as the run-length entry points interleave them. The
// runs take it while a cycle breakdown is attached, which is what makes
// an attributed Hierarchy the per-access reference for the fast paths.
func (h *Hierarchy) runChunks(n, chunk int, loop float64, body func(off, n int)) {
	if n <= 0 {
		return
	}
	if chunk <= 0 {
		body(0, n)
		return
	}
	for i := 0; i < n; i += chunk {
		c := chunk
		if c > n-i {
			c = n - i
		}
		h.AddCycles(loop)
		body(i, c)
	}
}

// ReadRun simulates words consecutive 4-byte loads starting at addr,
// charging chunkLoop cycles of loop overhead before every chunkWords loads
// (chunkWords <= 0 charges no loop overhead). It is the run-length fast
// path for ReadWords: one tag lookup and LRU update resolves each cache
// line, and the per-word hit costs for the rest of the line are charged in
// the same accumulation order as the per-access loop, so cycles and Stats
// are bit-identical to issuing the equivalent per-word sequence (an
// attributed Hierarchy runs that per-access decomposition; the
// differential test holds the two together).
func (h *Hierarchy) ReadRun(addr uint64, words, chunkWords int, chunkLoop float64) {
	checkRun(chunkWords, chunkLoop)
	if words <= 0 {
		return
	}
	if h.attr != nil {
		// Attribution attached: take the per-access decomposition, where
		// every charge lands in exactly one bucket. Bit-identical to the
		// fast path by the §8.1 invariant.
		h.runChunks(words, chunkWords, chunkLoop, func(off, n int) {
			h.ReadWords(addr+uint64(off)*WordSize, n)
		})
		return
	}
	t := &h.cfg.Timing
	h.stats.BytesRead += uint64(words) * WordSize
	// The running ledger lives in a local for the duration of the run: the
	// serial += chain is the hot path, and keeping it in h.cycles would
	// reload and store the accumulator every word (the compiler cannot
	// prove h.cycles and the timing constants don't alias). Only where the
	// value is kept changes — the addition order is exactly per-access —
	// and it is synced back around every fill, which charges h.cycles
	// itself.
	cycles, wordHit := h.cycles, t.WordHit
	// untilLoop counts down the words remaining before the next per-chunk
	// loop charge; a countdown avoids an integer division per word.
	untilLoop := 0
	for i := 0; i < words; {
		a := addr + uint64(i)*WordSize
		k := h.lineRun(a, words-i, WordSize)
		// One lookup classifies the whole line: after the first load (which
		// fills on a miss) the line is resident, so the remaining k-1 loads
		// are L1 hits whose costs are replayed without consulting the tags.
		if chunkWords > 0 {
			if untilLoop == 0 {
				cycles += chunkLoop
				untilLoop = chunkWords
			}
			untilLoop--
		}
		cycles += wordHit
		if h.l1.lookup(a) != nil {
			h.stats.L1Hits++
		} else {
			h.stats.L1Misses++
			h.cycles = cycles
			h.fill(a)
			cycles = h.cycles
		}
		for j := 1; j < k; j++ {
			if chunkWords > 0 {
				if untilLoop == 0 {
					cycles += chunkLoop
					untilLoop = chunkWords
				}
				untilLoop--
			}
			cycles += wordHit
		}
		h.stats.L1Hits += uint64(k - 1)
		i += k
	}
	h.cycles = cycles
}

// runClass says how every access after the first in a line-length run
// resolves: as L1 hits, as L2 hits (no-write-allocate stores to an
// L2-resident line), or as individual memory transactions.
type runClass int

const (
	runL1 runClass = iota
	runL2
	runMem
)

// WriteRun simulates words consecutive 4-byte stores starting at addr with
// the same chunked loop structure as ReadRun. One tag lookup per line
// classifies the stores — L1 hit, write-allocate fill, L2 hit, or memory
// transaction — and the per-word costs of the remainder follow in the
// per-access accumulation order.
func (h *Hierarchy) WriteRun(addr uint64, words, chunkWords int, chunkLoop float64) {
	checkRun(chunkWords, chunkLoop)
	if words <= 0 {
		return
	}
	if h.attr != nil {
		h.runChunks(words, chunkWords, chunkLoop, func(off, n int) {
			h.WriteWords(addr+uint64(off)*WordSize, n)
		})
		return
	}
	t := &h.cfg.Timing
	h.stats.BytesWrit += uint64(words) * WordSize
	// As in ReadRun, the ledger lives in a local and is synced around fill.
	cycles := h.cycles
	untilLoop := 0
	for i := 0; i < words; {
		a := addr + uint64(i)*WordSize
		k := h.lineRun(a, words-i, WordSize)
		if chunkWords > 0 {
			if untilLoop == 0 {
				cycles += chunkLoop
				untilLoop = chunkWords
			}
			untilLoop--
		}
		// First store of the line: full per-access path.
		var class runClass
		if l := h.l1.lookup(a); l != nil {
			h.stats.L1Hits++
			cycles += t.WordWriteHit
			l.markDirty()
			class = runL1
		} else {
			h.stats.L1Misses++
			switch {
			case h.cfg.WriteAllocate:
				h.cycles = cycles
				l := h.fill(a)
				cycles = h.cycles
				cycles += t.WordWriteHit
				// Dirty the filled line with its LRU bump, as the
				// per-access path's re-lookup does, without the scan.
				h.l1.touch(l)
				l.markDirty()
				class = runL1 // the fill leaves the line in L1
			default:
				if l2 := h.l2.lookup(a); l2 != nil {
					h.stats.L2Hits++
					cycles += t.L2WordAccess
					l2.markDirty()
					class = runL2
				} else {
					h.stats.L2Misses++
					cycles += t.MemWordWrite
					h.stats.MemWordWrites++
					class = runMem
				}
			}
		}
		// The remaining k-1 stores resolve identically: no-write-allocate
		// misses never change cache state, and hits only re-touch the line.
		var cost float64
		switch class {
		case runL1:
			cost = t.WordWriteHit
			h.stats.L1Hits += uint64(k - 1)
		case runL2:
			cost = t.L2WordAccess
			h.stats.L1Misses += uint64(k - 1)
			h.stats.L2Hits += uint64(k - 1)
		case runMem:
			cost = t.MemWordWrite
			h.stats.L1Misses += uint64(k - 1)
			h.stats.L2Misses += uint64(k - 1)
			h.stats.MemWordWrites += uint64(k - 1)
		}
		for j := 1; j < k; j++ {
			if chunkWords > 0 {
				if untilLoop == 0 {
					cycles += chunkLoop
					untilLoop = chunkWords
				}
				untilLoop--
			}
			cycles += cost
		}
		i += k
	}
	h.cycles = cycles
}

// CopyRun simulates the interleaved main loop of a copy routine: for each
// chunk of chunkWords words it charges chunkLoop cycles of loop overhead,
// then the chunk's loads from src, then the chunk's stores to dst — the
// exact accumulation order of the per-access loops (chunkWords <= 0 makes
// the whole run a single chunk with no loop charge).
//
// Unlike the single-stream runs, collapsing same-line accesses to the
// first one is NOT enough here: the two streams' LRU touches interleave,
// so dropping the later touches can invert the relative last-touch order
// of the source and destination lines and silently change a future
// victim choice. CopyRun therefore keeps a pointer to each stream's
// current line and replays every collapsed access's LRU bump directly on
// it — the set probe is what the fast path saves, not the tick. Any fill
// can evict the other stream's cached line (directly, or via an
// inclusion invalidation), so it drops that stream's pointer and forces
// a real lookup on its next access.
func (h *Hierarchy) CopyRun(src, dst uint64, words, chunkWords int, chunkLoop float64) {
	checkRun(chunkWords, chunkLoop)
	if words <= 0 {
		return
	}
	if h.attr != nil {
		h.runChunks(words, chunkWords, chunkLoop, func(off, n int) {
			h.ReadWords(src+uint64(off)*WordSize, n)
			h.WriteWords(dst+uint64(off)*WordSize, n)
		})
		return
	}
	t := &h.cfg.Timing
	h.stats.BytesRead += uint64(words) * WordSize
	h.stats.BytesWrit += uint64(words) * WordSize
	cw := chunkWords
	if cw <= 0 {
		cw = words
	}
	lineMask := ^uint64(h.cfg.LineSize - 1)
	// As in ReadRun, the ledger lives in a local and is synced around fill.
	cycles, wordHit := h.cycles, t.WordHit
	var (
		readLine, writeLine uint64
		readPtr             *line // current src line, resident in L1
		writePtr            *line // current dst line in L1 (runL1) or L2 (runL2)
		writeValid          bool
		writeClass          runClass
		writeCost           float64
	)
	for i := 0; i < words; i += cw {
		n := cw
		if words-i < n {
			n = words - i
		}
		if chunkWords > 0 {
			cycles += chunkLoop
		}
		for j := 0; j < n; {
			a := src + uint64(i+j)*WordSize
			la := a & lineMask
			if readPtr != nil && la == readLine {
				// The rest of this chunk's loads on the cached line: serial
				// per-word cycle charges (float addition order is the
				// invariant), batched stats and a batched LRU replay — k
				// consecutive touches of one line with no other cache event
				// between them collapse to tick += k exactly.
				k := h.lineRun(a, n-j, WordSize)
				for w := 0; w < k; w++ {
					cycles += wordHit
				}
				h.stats.L1Hits += uint64(k)
				h.l1.tick += uint64(k)
				readPtr.use = h.l1.tick<<1 | readPtr.use&1
				j += k
				continue
			}
			cycles += wordHit
			if l := h.l1.lookup(a); l != nil {
				h.stats.L1Hits++
				readPtr = l
			} else {
				h.stats.L1Misses++
				h.cycles = cycles
				readPtr = h.fill(a)
				cycles = h.cycles
				writeValid = false // the fill may have evicted the write line
			}
			readLine = la
			j++
		}
		for j := 0; j < n; {
			a := dst + uint64(i+j)*WordSize
			la := a & lineMask
			if writeValid && la == writeLine {
				k := h.lineRun(a, n-j, WordSize)
				for w := 0; w < k; w++ {
					cycles += writeCost
				}
				switch writeClass {
				case runL1:
					h.stats.L1Hits += uint64(k)
					h.l1.tick += uint64(k)
					writePtr.use = h.l1.tick<<1 | writePtr.use&1
				case runL2:
					h.stats.L1Misses += uint64(k)
					h.stats.L2Hits += uint64(k)
					h.l2.tick += uint64(k)
					writePtr.use = h.l2.tick<<1 | writePtr.use&1
				case runMem:
					h.stats.L1Misses += uint64(k)
					h.stats.L2Misses += uint64(k)
					h.stats.MemWordWrites += uint64(k)
				}
				j += k
				continue
			}
			// First store of a line: the full per-access path, as in WriteRun.
			if l := h.l1.lookup(a); l != nil {
				h.stats.L1Hits++
				cycles += t.WordWriteHit
				l.markDirty()
				writeClass, writeCost, writePtr = runL1, t.WordWriteHit, l
			} else {
				h.stats.L1Misses++
				switch {
				case h.cfg.WriteAllocate:
					h.cycles = cycles
					l := h.fill(a)
					cycles = h.cycles
					cycles += t.WordWriteHit
					// The per-access path re-looks the line up to mark it
					// dirty; the fill's pointer plus the lookup's LRU bump
					// replays that without the scan.
					h.l1.touch(l)
					l.markDirty()
					writePtr = l
					readPtr = nil // the fill may have evicted the read line
					writeClass, writeCost = runL1, t.WordWriteHit
				default:
					if l2 := h.l2.lookup(a); l2 != nil {
						h.stats.L2Hits++
						cycles += t.L2WordAccess
						l2.markDirty()
						writeClass, writeCost, writePtr = runL2, t.L2WordAccess, l2
					} else {
						h.stats.L2Misses++
						cycles += t.MemWordWrite
						h.stats.MemWordWrites++
						writeClass, writeCost, writePtr = runMem, t.MemWordWrite, nil
					}
				}
			}
			writeLine, writeValid = la, writeClass != runL1 || writePtr != nil
			j++
		}
	}
	h.cycles = cycles
}

// Prefetch simulates a software prefetch: a load that touches one byte of
// the line containing addr purely to force allocation. On the P54C this is
// an ordinary load instruction whose result is discarded. It returns the
// cycles it charged, so callers modeling fill overlap need not bracket the
// call with two Cycles reads.
func (h *Hierarchy) Prefetch(addr uint64) float64 {
	start := h.cycles
	h.stats.PrefetchesIssued++
	h.cycles += h.cfg.Timing.PrefetchIssue
	if h.attr != nil {
		h.attr.Overhead += h.cfg.Timing.PrefetchIssue
	}
	if h.l1.lookup(addr) != nil {
		h.stats.L1Hits++
		return h.cycles - start
	}
	h.stats.L1Misses++
	h.stats.PrefetchesUseful++
	h.fill(addr)
	return h.cycles - start
}
