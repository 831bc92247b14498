package stats

// Pins for the degenerate histogram inputs the SMP lock audit leans on:
// empty histograms at the quantile extremes, and merging an empty (or
// nil) histogram as a byte-identical no-op. These behaviors were already
// correct; the pins keep them that way.

import (
	"bytes"
	"testing"
)

func TestHistogramEmptyQuantileExtremes(t *testing.T) {
	empty := &Histogram{}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := empty.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%g) = %d, want 0", q, got)
		}
		if got := empty.QuantileLower(q); got != 0 {
			t.Errorf("empty QuantileLower(%g) = %d, want 0", q, got)
		}
	}
}

func TestHistogramQuantileExtremesPinned(t *testing.T) {
	h := &Histogram{}
	for _, v := range []int64{3, 64, 1000, 1_000_000} {
		h.Observe(v)
	}
	// q=0 brackets the minimum's bucket, q=1 the maximum's: the lower
	// bound never exceeds the smallest observation, the upper bound
	// never undercuts the largest.
	if lo := h.QuantileLower(0); lo > 3 {
		t.Errorf("QuantileLower(0) = %d, above the minimum observation 3", lo)
	}
	if hi := h.Quantile(1); hi < 1_000_000 {
		t.Errorf("Quantile(1) = %d, below the maximum observation 1e6", hi)
	}
	if h.Quantile(0) > h.Quantile(1) || h.QuantileLower(0) > h.QuantileLower(1) {
		t.Error("quantile extremes out of order")
	}
}

func TestHistogramMergeEmptyIsByteIdenticalNoOp(t *testing.T) {
	mk := func() *Histogram {
		h := &Histogram{}
		for _, v := range []int64{1, 50, 50, 4096, 123456} {
			h.Observe(v)
		}
		return h
	}
	want, err := mk().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	h := mk()
	if err := h.Merge(&Histogram{}); err != nil {
		t.Fatal(err)
	}
	got, err := h.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Merge(empty) changed the histogram:\n got %s\nwant %s", got, want)
	}
	if err := h.Merge(nil); err != nil {
		t.Fatal(err)
	}
	got, err = h.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Merge(nil) changed the histogram:\n got %s\nwant %s", got, want)
	}
	// And the symmetric case: merging into an empty histogram equals the
	// source.
	e := &Histogram{}
	if err := e.Merge(mk()); err != nil {
		t.Fatal(err)
	}
	got, err = e.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("empty.Merge(h) != h:\n got %s\nwant %s", got, want)
	}
}

// TestHistogramMergeRefusesOverflow: two valid histograms of one
// observation of 2^62 each would merge to a sum of 2^63, which wraps to
// -2^63 and which the merged histogram's own JSON could not carry. Merge
// refuses them and leaves the histogram as it was.
func TestHistogramMergeRefusesOverflow(t *testing.T) {
	var h, o Histogram
	h.Observe(1 << 62)
	o.Observe(1 << 62)
	before := h
	if err := h.Merge(&o); err == nil || h != before {
		t.Fatalf("Merge = %v, sum %d: want an error and the histogram unchanged", err, h.Sum())
	}
	o = Histogram{}
	o.counts[0] = 1 << 63 // a count past what the JSON form carries
	o.n = 1 << 63
	if err := h.Merge(&o); err == nil || h != before {
		t.Fatalf("Merge of a count of 2^63 = %v: want an error and the histogram unchanged", err)
	}
}
