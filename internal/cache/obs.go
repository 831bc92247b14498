package cache

import "repro/internal/obs"

// CycleBreakdown attributes a hierarchy's cycle ledger to where the
// cycles were spent: L1 service, L2 service (fills from L2 and stores
// absorbed by L2), memory transactions, dirty write-backs, and loop/ALU
// overhead. When a breakdown is attached (AttachBreakdown), every cycle
// charged is also added to exactly one bucket, so Total() equals the
// hierarchy's Cycles() at all times — the structural identity behind the
// `pentiumbench metrics` attribution tables.
type CycleBreakdown struct {
	// L1 is cycles serviced at L1: word/byte hit costs, including the
	// base cost of accesses that go on to miss.
	L1 float64
	// L2 is cycles serviced at L2: line fills from L2 and
	// no-write-allocate stores absorbed by an L2-resident line.
	L2 float64
	// Mem is cycles spent on main-memory transactions: fills from memory
	// and non-allocated write transactions.
	Mem float64
	// WriteBack is cycles spent pushing dirty lines down the hierarchy.
	WriteBack float64
	// Overhead is loop and ALU overhead (AddCycles, chunk-loop charges)
	// plus prefetch issue slots.
	Overhead float64
}

// AttachBreakdown starts attributing every charged cycle into b (nil
// detaches). While attached, the run-length entry points take the
// per-access decomposition instead of the batched fast path: the
// decomposition is bit-identical in cycles and Stats (the §8.1
// invariant), and per-access charges are where exact bucket attribution
// is defined. An attributed Hierarchy is therefore also the reference
// model the fast paths are tested against. Detached (the default),
// attribution costs the fast paths nothing.
func (h *Hierarchy) AttachBreakdown(b *CycleBreakdown) { h.attr = b }

// FoldStats adds the traffic counters to a registry under the given name
// prefix ("cache." conventionally).
func (s Stats) FoldStats(reg *obs.Registry, prefix string) {
	if reg == nil {
		return
	}
	add := func(name string, v uint64) {
		reg.Counter(prefix + name).Add(float64(v))
	}
	add("l1_hits", s.L1Hits)
	add("l1_misses", s.L1Misses)
	add("l2_hits", s.L2Hits)
	add("l2_misses", s.L2Misses)
	add("mem_word_writes", s.MemWordWrites)
	add("mem_byte_writes", s.MemByteWrites)
	add("l1_writebacks", s.L1WriteBacks)
	add("l2_writebacks", s.L2WriteBacks)
	add("prefetches_issued", s.PrefetchesIssued)
	add("prefetches_useful", s.PrefetchesUseful)
	add("lines_filled_from_l2", s.LinesFilledFromL2)
	add("lines_filled_from_mem", s.LinesFilledFromMem)
	add("bytes_read", s.BytesRead)
	add("bytes_written", s.BytesWrit)
}
