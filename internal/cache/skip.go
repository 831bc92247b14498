package cache

import "math"

// Periodic fast-forward (DESIGN.md §8.1). Shifting every address by
// Period bytes keeps it in its set at both levels. So once a period of a
// streaming pass ends in the state it began in, with every resident line
// moved up one period, the next period's accesses (the same ones, moved
// up once more) resolve exactly as the last period's did, and a caller
// whose accesses are translation-invariant may apply them with Skip
// instead of simulating them.

// periodSnap is the state a period began in. It lives in the Hierarchy,
// so a pooled hierarchy reuses its buffers.
type periodSnap struct {
	l1, l2       [][2]line
	tick1, tick2 uint64
	cycles       float64
	stats        Stats
	marked       bool
}

// Period returns the fast-forward period in bytes: L2's set count times
// the line size. L1 is the smaller of two two-way levels over one line
// size, so L2's set count is a power-of-two multiple of L1's.
func (h *Hierarchy) Period() int {
	return int(h.l2.setMask+1) * h.cfg.LineSize
}

// Mark snapshots the hierarchy at the start of a period. An attributed
// hierarchy is the per-access reference, so it is never marked and never
// skips.
func (h *Hierarchy) Mark() {
	s := &h.snap
	if s.marked = h.attr == nil; s.marked {
		s.l1 = append(s.l1[:0], h.l1.sets...)
		s.l2 = append(s.l2[:0], h.l2.sets...)
		s.tick1, s.tick2 = h.l1.tick, h.l2.tick
		s.cycles, s.stats = h.cycles, h.stats
	}
}

// Repeats reports whether Skip can apply at least one period: the ledger
// would repeat the period exactly (ExactRepeats, the cheap test, first),
// and each set of both levels holds the Mark snapshot's valid lines, each
// moved up one period with its dirty bit, in the same recency order. Way
// positions do not count: lookups never read them, and a fill takes the
// first free way or else the least recent one, so two states that agree
// set by set in line, dirty bit and recency order resolve every future
// access alike.
func (h *Hierarchy) Repeats() bool {
	if !h.snap.marked || ExactRepeats(h.snap.cycles, h.cycles, 1) == 0 {
		return false
	}
	p := uint64(h.Period() / h.cfg.LineSize)
	return h.l1.repeats(h.snap.l1, p) && h.l2.repeats(h.snap.l2, p)
}

// repeats compares each set with its snapshot, both pairs of ways ordered
// by recency.
func (lv *level) repeats(snap [][2]line, p uint64) bool {
	gb := lv.genBase
	for i := range lv.sets {
		c0, c1 := byRecency(lv.sets[i], gb)
		o0, o1 := byRecency(snap[i], gb)
		if !movedUp(c0, o0, gb, p) || !movedUp(c1, o1, gb, p) {
			return false
		}
	}
	return true
}

// byRecency orders a set's two ways valid before free, and the less
// recently used of two valid ways first.
func byRecency(s [2]line, gb uint64) (line, line) {
	if s[0].key <= gb || s[1].key > gb && s[1].use < s[0].use {
		return s[1], s[0]
	}
	return s[0], s[1]
}

// movedUp reports whether way c holds o's line moved up p line addresses
// with o's dirty bit, or both are free.
func movedUp(c, o line, gb, p uint64) bool {
	if c.key <= gb || o.key <= gb {
		return c.key <= gb && o.key <= gb
	}
	return c.key == o.key+p && (c.use^o.use)&1 == 0
}

// Skip applies up to n further periods after Repeats has held and returns
// how many it applied, consuming the snapshot. Every valid line moves up
// that many periods, and its LRU stamp and the level's tick advance by
// that many periods' ticks, which keeps each set's recency order. The
// traffic counters and the ledger gain that many times their period
// deltas, but the ledger only as far as adding one charge at a time
// provably lands on the same bits (ExactRepeats), so Skip may apply fewer
// than n.
func (h *Hierarchy) Skip(n int) int {
	s := &h.snap
	if !s.marked {
		return 0
	}
	s.marked = false
	n = ExactRepeats(s.cycles, h.cycles, n)
	k := uint64(n)
	lines := k * uint64(h.Period()/h.cfg.LineSize)
	h.l1.advance(lines, k*(h.l1.tick-s.tick1))
	h.l2.advance(lines, k*(h.l2.tick-s.tick2))
	h.cycles += float64(n) * (h.cycles - s.cycles)
	cur, old := h.stats.counters(), s.stats.counters()
	for i := range cur {
		*cur[i] += k * (*cur[i] - *old[i])
	}
	return n
}

// advance moves every valid line up lines line addresses and its stamp,
// and the tick, up ticks.
func (lv *level) advance(lines, ticks uint64) {
	for i := range lv.sets {
		for j := range lv.sets[i] {
			if w := &lv.sets[i][j]; w.key > lv.genBase {
				w.key += lines
				w.use += ticks << 1
			}
		}
	}
	lv.tick += ticks
}

// counters lists s's fields, for Skip's arithmetic on all of them.
func (s *Stats) counters() [14]*uint64 {
	return [...]*uint64{
		&s.L1Hits, &s.L1Misses, &s.L2Hits, &s.L2Misses,
		&s.MemWordWrites, &s.MemByteWrites, &s.L1WriteBacks, &s.L2WriteBacks,
		&s.PrefetchesIssued, &s.PrefetchesUseful,
		&s.LinesFilledFromL2, &s.LinesFilledFromMem, &s.BytesRead, &s.BytesWrit,
	}
}

// ExactRepeats returns the largest k up to n for which k further repeats
// of a block of non-negative charges, which took a float64 sum from x0 to
// x1, provably end at x1 + k·(x1−x0) when added one charge at a time.
//
// Inside one binade [lo, 2lo) every float64 is a multiple of u = lo·2⁻⁵²,
// and rounding to nearest, ties to even, commutes with a shift by an even
// multiple of u, which keeps a tie's even neighbour even. So if x0 and x1
// share a binade and (x1−x0)/u is even, each repeat retraces the block's
// partial sums shifted by x1−x0, while the sum stays below 2lo. Without
// the parity test, a tie constant breaks the rule. The subnormals form one
// more such grid.
func ExactRepeats(x0, x1 float64, n int) int {
	const mant = 1<<52 - 1
	b0, b1 := math.Float64bits(x0), math.Float64bits(x1)
	// Negative, infinite and NaN sums, a binade crossing, a falling sum and
	// an odd delta repeat zero times.
	if n <= 0 || b0 >= 0x7ff<<52 || b0>>52 != b1>>52 || b1 < b0 || (b1-b0)&1 != 0 {
		return 0
	}
	if d := b1 - b0; d > 0 && (mant-b1&mant)/d < uint64(n) {
		return int((mant - b1&mant) / d)
	}
	return n
}
