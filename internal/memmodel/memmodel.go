// Package memmodel implements the memory benchmarks of the paper's §6: the
// libc memset()/memcpy() models and the authors' custom read, write and
// copy routines, with and without software prefetching.
//
// Every routine is written exactly the way the paper describes the
// originals: a main loop that handles 16 bytes per iteration, followed by a
// tail loop that handles the remaining 0–15 bytes one byte per iteration
// (the source of the §6.4 bandwidth dips). The routines run against the
// cache.Hierarchy model, so the plateaus at the 8 KB and 256 KB cache sizes,
// the flat sub-50 MB/s write curves (no write-allocate), and the prefetching
// speedups all emerge from the simulated hierarchy rather than being baked
// into tables.
package memmodel

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/cpu"
)

// ChunkSize is the number of bytes handled per main-loop iteration.
const ChunkSize = 16

const wordsPerChunk = ChunkSize / cache.WordSize

// The loop overheads in cycles: chunkLoop is charged per 16-byte
// main-loop iteration of the custom routines, libcChunkLoop per 16 bytes
// of the (slightly lower, unrolled) libc routines, and tailLoop per byte
// of the tail loop.
const (
	chunkLoop     = 1.33
	libcChunkLoop = 1.0
	tailLoop      = 0.7
)

// Routine identifies one of the §6 memory routines.
type Routine int

// The routines of Figures 2–8, in figure order.
const (
	CustomRead    Routine = iota // Figure 2
	Memset                       // Figure 3
	NaiveWrite                   // Figure 4
	PrefetchWrite                // Figure 5
	LibcMemcpy                   // Figure 6
	NaiveCopy                    // Figure 7
	PrefetchCopy                 // Figure 8
)

// String returns the routine's name as used in the paper's figures.
func (r Routine) String() string {
	switch r {
	case CustomRead:
		return "custom read"
	case Memset:
		return "memset"
	case NaiveWrite:
		return "naive custom write"
	case PrefetchWrite:
		return "prefetching custom write"
	case LibcMemcpy:
		return "memcpy"
	case NaiveCopy:
		return "naive custom copy"
	case PrefetchCopy:
		return "prefetching custom copy"
	}
	return fmt.Sprintf("Routine(%d)", int(r))
}

// Model runs memory routines over a cache hierarchy. The zero value is not
// usable; construct with NewModel.
type Model struct {
	cpu  cpu.CPU
	hier *cache.Hierarchy

	// PrefetchDistance is how many lines ahead the prefetching routines
	// touch. The paper's routines prefetched as the write took place;
	// distance 1 models that. The A2 ablation sweeps this.
	PrefetchDistance int
	// overlapSavings accumulates the fill latency hidden by prefetching
	// ahead of use. Each line of lead hides up to the processing time of
	// one line.
	overlapSavings float64
	// skipped counts the periods stream fast-forwarded since Bandwidth
	// began, so tests can see that the skip engages.
	skipped int

	// line and prefetchIssue copy the two hierarchy settings the passes
	// read on every line.
	line          int
	prefetchIssue float64

	srcBase, dstBase uint64
}

// DefaultPrefetchDistance is the lookahead of the paper's prefetching
// routines, which touched the next line as the write took place.
const DefaultPrefetchDistance = 1

// NewModel builds a memory model over a fresh hierarchy with the given
// configuration. The passes issue run-length accesses, which the
// hierarchy resolves with one tag lookup per cache line.
func NewModel(c cpu.CPU, cfg cache.Config) *Model {
	return newModelOn(c, cache.MustNew(cfg))
}

func newModelOn(c cpu.CPU, h *cache.Hierarchy) *Model {
	cfg := h.Config()
	return &Model{
		cpu:              c,
		hier:             h,
		PrefetchDistance: DefaultPrefetchDistance,
		line:             cfg.LineSize,
		prefetchIssue:    cfg.Timing.PrefetchIssue,
		srcBase:          1 << 20,
	}
}

// Hierarchy exposes the underlying cache model (for statistics).
func (m *Model) Hierarchy() *cache.Hierarchy { return m.hier }

// layout positions the source and destination buffers the way the original
// benchmark's allocator did: adjacent, line-aligned allocations.
func (m *Model) layout(size int) {
	rounded := (uint64(size) + 63) &^ 31
	m.dstBase = m.srcBase + rounded + 32
}

// stream runs a pass's main loop over size bytes, chunk by chunk, through
// body(from, to), which issues chunks [from, to); splitting a run at chunk
// boundaries is bit-identical. The first period runs straight, as it still
// meets the previous pass's lines. After it, stream marks each period's
// start, runs the period, and when the hierarchy has repeated it one
// period up, skips as many further periods as the ledger (Skip) and
// overlapSavings both repeat exactly. Skipped chunks must be earlier ones
// moved up, so with lookahead set stream never skips into the last
// PrefetchDistance lines, whose touches are capped at the buffer end.
func (m *Model) stream(size int, lookahead bool, body func(from, to int)) {
	h, n := m.hier, size/ChunkSize
	pc, limit := h.Period()/ChunkSize, n
	if lookahead {
		limit = min(n, (size-m.PrefetchDistance*m.line)/ChunkSize)
	}
	i := min(pc, n)
	body(0, i)
	for pc > 0 && i+2*pc <= limit { // a period shorter than a chunk never skips
		h.Mark()
		s0 := m.overlapSavings
		body(i, i+pc)
		i += pc
		if k := cache.ExactRepeats(s0, m.overlapSavings, (limit-i)/pc); k > 0 && h.Repeats() {
			k = h.Skip(k)
			m.overlapSavings += float64(k) * (m.overlapSavings - s0)
			m.skipped += k
			i += k * pc
		}
	}
	body(i, n)
}

// readPass performs one pass of the custom read routine over size bytes.
// Each piece of the main loop is one run-length access: ReadRun replays
// the per-chunk loop overhead and per-word costs in the original order
// while resolving only one tag lookup per cache line.
func (m *Model) readPass(base uint64, size int) {
	m.stream(size, false, func(from, to int) {
		m.hier.ReadRun(base+uint64(from*ChunkSize), (to-from)*wordsPerChunk, wordsPerChunk, chunkLoop)
	})
	m.tailRead(base, size)
}

// writePass performs one pass of a write routine (memset or custom). The
// non-prefetching variants issue each piece of the main loop as a single
// run; the prefetching variants break it at each line boundary, where the
// original loop interposes a prefetch touch.
func (m *Model) writePass(base uint64, size int, loop float64, prefetch bool) {
	if !prefetch {
		m.stream(size, false, func(from, to int) {
			m.hier.WriteRun(base+uint64(from*ChunkSize), (to-from)*wordsPerChunk, wordsPerChunk, loop)
		})
		m.tailWrite(base, size)
		return
	}
	lineMask := uint64(m.line) - 1 // line sizes are powers of two
	m.preamble(base, size)
	m.stream(size, true, func(from, to int) {
		for i := from; i < to; {
			addr := base + uint64(i*ChunkSize)
			if addr&lineMask == 0 {
				m.prefetchAhead(addr, size, base, loop)
			}
			// Run until the next prefetch point (the next line-aligned chunk).
			g := 1
			for i+g < to && (base+uint64((i+g)*ChunkSize))&lineMask != 0 {
				g++
			}
			m.hier.WriteRun(addr, g*wordsPerChunk, wordsPerChunk, loop)
			i += g
		}
	})
	m.tailWrite(base, size)
}

// preamble touches the first PrefetchDistance lines of the buffer so the
// steady-state loop's lookahead never leaves the head of the buffer
// permanently uncached (real prefetching routines do the same before
// entering their main loop).
func (m *Model) preamble(base uint64, size int) {
	line := m.line
	for d := 0; d < m.PrefetchDistance && d*line < size; d++ {
		m.hier.Prefetch(base + uint64(d*line))
	}
}

// copyPass performs one pass of a copy routine. The interleaved
// read/write main loop is issued through CopyRun — one call per piece in
// the non-prefetching variants, one call per line-group in the
// prefetching ones, which interpose a touch at each line boundary.
func (m *Model) copyPass(size int, loop float64, prefetch bool) {
	lineMask := uint64(m.line) - 1 // line sizes are powers of two
	if !prefetch {
		m.stream(size, false, func(from, to int) {
			off := uint64(from * ChunkSize)
			m.hier.CopyRun(m.srcBase+off, m.dstBase+off, (to-from)*wordsPerChunk, wordsPerChunk, loop)
		})
	} else {
		m.preamble(m.dstBase, size)
		m.preamble(m.srcBase, size)
		m.stream(size, true, func(from, to int) {
			for i := from; i < to; {
				src := m.srcBase + uint64(i*ChunkSize)
				dst := m.dstBase + uint64(i*ChunkSize)
				if dst&lineMask == 0 {
					// The prefetching copy touches the destination line so
					// the stores hit; the source line is loaded by the reads
					// anyway, but touching it early hides its fill too.
					m.prefetchAhead(dst, size, m.dstBase, loop)
					m.prefetchAhead(src, size, m.srcBase, loop)
				}
				// Run until the next prefetch point (the next line-aligned chunk).
				g := 1
				for i+g < to && (m.dstBase+uint64((i+g)*ChunkSize))&lineMask != 0 {
					g++
				}
				m.hier.CopyRun(src, dst, g*wordsPerChunk, wordsPerChunk, loop)
				i += g
			}
		})
	}
	// Tail: byte-at-a-time copy through the per-access ReadBytes and
	// WriteBytes loops (at most ChunkSize-1 bytes a pass).
	tail := size % ChunkSize
	if tail > 0 {
		off := uint64(size - tail)
		m.hier.ReadBytes(m.srcBase+off, tail)
		m.chargeLoop(float64(tail) * tailLoop)
		m.hier.WriteBytes(m.dstBase+off, tail)
	}
}

// prefetchAhead issues a touch PrefetchDistance lines ahead of addr (capped
// at the end of the buffer) and credits the overlap the lead allows, the
// routine's main loop charging loop cycles per chunk. It also touches the
// current line if the distance is zero.
func (m *Model) prefetchAhead(addr uint64, size int, base uint64, loop float64) {
	line := uint64(m.line)
	target := addr + uint64(m.PrefetchDistance)*line
	if target >= base+uint64(size) {
		target = addr
	}
	fillCost := m.hier.Prefetch(target) - m.prefetchIssue
	if m.PrefetchDistance > 0 && fillCost > 0 {
		// Each line of lead overlaps the fill with the processing of one
		// line (two chunks of loop + word work).
		perLine := 2 * (loop + float64(wordsPerChunk))
		hidden := float64(m.PrefetchDistance) * perLine
		if hidden > fillCost {
			hidden = fillCost
		}
		m.overlapSavings += hidden
	}
}

// tailRead and tailWrite run the byte-at-a-time tail loop (at most
// ChunkSize-1 bytes) through the per-access ReadBytes and WriteBytes.
func (m *Model) tailRead(base uint64, size int) {
	tail := size % ChunkSize
	if tail > 0 {
		m.chargeLoop(float64(tail) * tailLoop)
		m.hier.ReadBytes(base+uint64(size-tail), tail)
	}
}

func (m *Model) tailWrite(base uint64, size int) {
	tail := size % ChunkSize
	if tail > 0 {
		m.chargeLoop(float64(tail) * tailLoop)
		m.hier.WriteBytes(base+uint64(size-tail), tail)
	}
}

func (m *Model) chargeLoop(cycles float64) {
	// Loop overhead dual-issues with the memory operations to a degree
	// already reflected in the calibrated constants; charge directly.
	m.hier.AddCycles(cycles)
}

// pass runs one full pass of the routine and returns its cycle cost.
func (m *Model) pass(r Routine, size int) float64 {
	start := m.hier.Cycles() - m.overlapSavings
	switch r {
	case CustomRead:
		m.readPass(m.srcBase, size)
	case Memset:
		m.writePass(m.srcBase, size, libcChunkLoop, false)
	case NaiveWrite:
		m.writePass(m.srcBase, size, chunkLoop, false)
	case PrefetchWrite:
		m.writePass(m.srcBase, size, chunkLoop, true)
	case LibcMemcpy:
		m.copyPass(size, libcChunkLoop, false)
	case NaiveCopy:
		m.copyPass(size, chunkLoop, false)
	case PrefetchCopy:
		m.copyPass(size, chunkLoop, true)
	default:
		panic(fmt.Sprintf("memmodel: unknown routine %d", int(r)))
	}
	return m.hier.Cycles() - m.overlapSavings - start
}

// TotalTraffic is the amount of data each benchmark point transfers, per
// §6: "the same buffers are used over and over again until eight megabytes
// of data have been transferred."
const TotalTraffic = 8 << 20

// Bandwidth runs routine r over a buffer of the given size until
// TotalTraffic bytes have been transferred, and returns the achieved
// bandwidth in megabytes per second (counting copied bytes once, as the
// paper does). The hierarchy starts cold.
//
// Rather than simulating every pass, Bandwidth simulates passes until two
// consecutive passes cost the same (the hierarchy has reached steady state)
// and extrapolates the remainder; the result is identical because the model
// is deterministic.
func (m *Model) Bandwidth(r Routine, size int) float64 {
	if size <= 0 {
		panic("memmodel: buffer size must be positive")
	}
	m.layout(size)
	m.hier.Flush()
	m.hier.ResetCycles()
	m.overlapSavings = 0
	m.skipped = 0

	passes := TotalTraffic / size
	if passes < 1 {
		passes = 1
	}

	var total, prev, prev2 float64
	measured := 0
	const maxMeasured = 8
	for p := 0; p < passes; p++ {
		steady := measured >= 3 && samePassCost(prev, prev2)
		if measured >= maxMeasured || steady {
			// Steady state: extrapolate the remaining passes at the last
			// measured pass cost.
			total += float64(passes-p) * prev
			break
		}
		c := m.pass(r, size)
		total += c
		prev2 = prev
		prev = c
		measured++
	}

	seconds := m.cpu.Cycles(total).Seconds()
	bytes := float64(passes * size)
	return bytes / seconds / 1e6
}

// samePassCost reports whether the last two measured pass costs agree
// closely enough that the hierarchy has reached steady state.
func samePassCost(prev, prev2 float64) bool {
	if prev <= 0 || prev2 <= 0 {
		return false
	}
	diff := prev - prev2
	if diff < 0 {
		diff = -diff
	}
	return diff/prev < 1e-9
}
