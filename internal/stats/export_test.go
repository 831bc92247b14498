package stats

// QuantileLower returns the lower boundary of the bucket holding the
// nearest-rank observation — the optimistic end of the bracket Quantile
// documents. An empty histogram returns 0; out-of-range q panics.
func (h *Histogram) QuantileLower(q float64) int64 {
	i := h.quantileBucket(q)
	if i < 0 {
		return 0
	}
	return bucketLower(i)
}
