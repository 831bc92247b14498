package cache

// Total sums the buckets.
func (b CycleBreakdown) Total() float64 {
	return b.L1 + b.L2 + b.Mem + b.WriteBack + b.Overhead
}

// Contains reports at which level the line holding addr currently resides:
// 1, 2, or 0 when it is only in memory. It scans the sets directly, so
// the LRU order is undisturbed.
func (h *Hierarchy) Contains(addr uint64) int {
	if h.peek(h.l1, addr) {
		return 1
	}
	if h.peek(h.l2, addr) {
		return 2
	}
	return 0
}

func (h *Hierarchy) peek(lv *level, addr uint64) bool {
	key := lv.genBase + lv.lineAddr(addr) + 1
	set := lv.set(key - 1)
	for i := range set {
		if set[i].key == key {
			return true
		}
	}
	return false
}
