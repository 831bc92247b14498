package stats

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

func TestHistogramBucketMappingExactBelow32(t *testing.T) {
	for v := int64(0); v < 32; v++ {
		h := &Histogram{}
		h.Observe(v)
		for _, q := range []float64{0, 0.5, 1} {
			if got := h.Quantile(q); got != v {
				t.Fatalf("Quantile(%v) of single value %d = %d, want exact", q, v, got)
			}
		}
	}
}

func TestHistogramBucketBoundariesConsistent(t *testing.T) {
	// Every bucket's upper boundary must map back into the bucket, and the
	// next value must map to a later bucket.
	for i := 0; i < histBuckets; i++ {
		up := bucketUpper(i)
		if up < 0 {
			// Octaves past int64 range overflow; the mapping never produces
			// them for valid inputs.
			continue
		}
		if got := bucketOf(up); got != i {
			t.Fatalf("bucketOf(bucketUpper(%d)=%d) = %d", i, up, got)
		}
		if up < math.MaxInt64 {
			if got := bucketOf(up + 1); got <= i {
				t.Fatalf("bucketOf(%d) = %d, want > %d", up+1, got, i)
			}
		}
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	empty := &Histogram{}
	if empty.Quantile(0.5) != 0 || empty.N() != 0 || empty.Sum() != 0 {
		t.Fatal("empty histogram must report zeros")
	}

	single := &Histogram{}
	single.Observe(1_000_000)
	p50, p999 := single.Quantile(0.5), single.Quantile(0.999)
	if p50 != p999 {
		t.Fatalf("single-op histogram: p50 %d != p999 %d", p50, p999)
	}
	if rel := float64(p50-1_000_000) / 1e6; rel < 0 || rel > 1.0/32 {
		t.Fatalf("single-op quantile %d outside one bucket above 1e6", p50)
	}

	onebucket := &Histogram{}
	for i := 0; i < 1000; i++ {
		onebucket.Observe(1024) // exact power of two: all in one bucket
	}
	if onebucket.Quantile(0) != onebucket.Quantile(1) {
		t.Fatal("all-in-one-bucket histogram must report one boundary everywhere")
	}
	if onebucket.Sum() != 1024*1000 || onebucket.Max() != 1024 {
		t.Fatalf("sum/max wrong: %d/%d", onebucket.Sum(), onebucket.Max())
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	h := &Histogram{}
	for v := int64(1); v < 1<<20; v = v*3 + 7 {
		h.Observe(v)
	}
	prev := int64(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		cur := h.Quantile(q)
		if cur < prev {
			t.Fatalf("quantile not monotone at q=%v: %d < %d", q, cur, prev)
		}
		prev = cur
	}
}

func TestHistogramNegativeClamps(t *testing.T) {
	h := &Histogram{}
	h.Observe(-5)
	if h.N() != 1 || h.Sum() != 0 || h.Quantile(1) != 0 {
		t.Fatal("negative observation must clamp to zero")
	}
}

func TestHistogramMergeOrderInvariance(t *testing.T) {
	vals := []int64{0, 1, 31, 32, 33, 1000, 1024, 1 << 20, 7_777_777, 1 << 40}
	build := func(order []int) *Histogram {
		h := &Histogram{}
		for _, i := range order {
			h.Observe(vals[i])
		}
		return h
	}
	direct := build([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})

	a := build([]int{9, 7, 5, 3, 1})
	b := build([]int{0, 2, 4, 6, 8})
	ab := &Histogram{}
	ba := &Histogram{}
	for _, err := range []error{ab.Merge(a), ab.Merge(b), ba.Merge(b), ba.Merge(a)} {
		if err != nil {
			t.Fatal(err)
		}
	}

	for _, m := range []*Histogram{ab, ba} {
		if *m != *direct {
			t.Fatal("merged histogram differs from directly observed histogram")
		}
	}
	jd, _ := json.Marshal(direct)
	jm, _ := json.Marshal(ab)
	if !bytes.Equal(jd, jm) {
		t.Fatalf("merge-order JSON mismatch:\n%s\n%s", jd, jm)
	}
}

func TestHistogramJSONRoundTrip(t *testing.T) {
	h := &Histogram{}
	for v := int64(1); v < 1<<30; v = v*5 + 3 {
		h.Observe(v)
	}
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var back Histogram
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != *h {
		t.Fatal("JSON round trip changed the histogram")
	}
	data2, _ := json.Marshal(&back)
	if !bytes.Equal(data, data2) {
		t.Fatal("re-marshal not byte-identical")
	}
}

func TestHistogramJSONRejectsBadBuckets(t *testing.T) {
	for _, bad := range []string{
		`{"n":1,"sum":1,"max":1,"buckets":[[-1,1]]}`,
		`{"n":1,"sum":1,"max":1,"buckets":[[999999,1]]}`,
		`{"n":1,"sum":1,"max":1,"buckets":[[3,-2]]}`,
		// n disagrees with the counts: Quantile(0.5) used to return -1.
		`{"n":5,"sum":3,"max":1,"buckets":[[2,1]]}`,
		// A repeated index used to overwrite the first count.
		`{"n":2,"sum":4,"max":2,"buckets":[[2,1],[2,1]]}`,
		// MarshalJSON writes indices in ascending order.
		`{"n":2,"sum":5,"max":3,"buckets":[[3,1],[2,1]]}`,
		// max outside the top non-empty bucket, either side.
		`{"n":1,"sum":2,"max":3,"buckets":[[2,1]]}`,
		`{"n":2,"sum":4,"max":1,"buckets":[[1,1],[3,1]]}`,
		// sum outside [Σ count·lower, Σ count·upper].
		`{"n":2,"sum":5,"max":2,"buckets":[[2,2]]}`,
		`{"n":2,"sum":100,"max":40,"buckets":[[10,1],[40,1]]}`,
		`{"n":1,"sum":-1,"max":0,"buckets":[[0,1]]}`,
		// An empty histogram holds no sum and no max.
		`{"n":0,"sum":3,"max":0,"buckets":[]}`,
		`{"n":0,"sum":0,"max":7,"buckets":[[4,0]]}`,
		// Counts whose sum overflows uint64.
		`{"n":0,"sum":0,"max":0,"buckets":[[1,9223372036854775807],[2,9223372036854775807],[3,2]]}`,
	} {
		var h Histogram
		if err := json.Unmarshal([]byte(bad), &h); err == nil {
			t.Fatalf("accepted bad histogram JSON %s", bad)
		}
	}
}

func TestHistogramQuantilePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Quantile(1.2) did not panic")
		}
	}()
	(&Histogram{}).Quantile(1.2)
}

// TestHistogramQuantileBracketsPinned pins the p50/p99/p999 brackets for
// two known distributions. The constants were computed from the bucket
// geometry once and hand-checked against the exact order statistics:
// every exact quantile must sit inside [QuantileLower, Quantile], and a
// geometry change that moves any boundary fails here first.
func TestHistogramQuantileBracketsPinned(t *testing.T) {
	uniform := func() *Histogram {
		h := &Histogram{}
		for v := int64(1); v <= 1000; v++ {
			h.Observe(v)
		}
		return h
	}
	powers := func() *Histogram {
		h := &Histogram{}
		v := int64(1)
		for i := 0; i < 40; i++ {
			h.Observe(v)
			v *= 2
		}
		return h
	}
	cases := []struct {
		name         string
		h            *Histogram
		q            float64
		exact        int64 // true nearest-rank quantile of the inputs
		lower, upper int64
	}{
		{"uniform-1..1000 p50", uniform(), 0.50, 500, 496, 503},
		{"uniform-1..1000 p99", uniform(), 0.99, 990, 976, 991},
		{"uniform-1..1000 p999", uniform(), 0.999, 1000, 992, 1007},
		{"powers-of-two p50", powers(), 0.50, 524288, 524288, 540671},
		{"powers-of-two p99", powers(), 0.99, 549755813888, 549755813888, 566935683071},
		{"powers-of-two p999", powers(), 0.999, 549755813888, 549755813888, 566935683071},
	}
	for _, tc := range cases {
		lo, hi := tc.h.QuantileLower(tc.q), tc.h.Quantile(tc.q)
		if lo != tc.lower || hi != tc.upper {
			t.Errorf("%s: bracket [%d, %d], want [%d, %d]", tc.name, lo, hi, tc.lower, tc.upper)
		}
		if tc.exact < lo || tc.exact > hi {
			t.Errorf("%s: exact quantile %d escapes bracket [%d, %d]", tc.name, tc.exact, lo, hi)
		}
		if w := float64(hi-lo) / float64(hi); hi >= histSubBuckets && w > 1.0/histSubBuckets {
			t.Errorf("%s: bracket width %.4f exceeds 1/%d of the value", tc.name, w, histSubBuckets)
		}
	}
}

func TestHistogramQuantileLowerEdges(t *testing.T) {
	empty := &Histogram{}
	if got := empty.QuantileLower(0.5); got != 0 {
		t.Fatalf("empty QuantileLower = %d, want 0", got)
	}
	// Exact buckets collapse the bracket to a point.
	h := &Histogram{}
	h.Observe(17)
	if lo, hi := h.QuantileLower(0.5), h.Quantile(0.5); lo != 17 || hi != 17 {
		t.Fatalf("exact-bucket bracket [%d, %d], want [17, 17]", lo, hi)
	}
	// QuantileLower shares Quantile's out-of-range panic.
	defer func() {
		if recover() == nil {
			t.Fatal("QuantileLower(1.5) did not panic")
		}
	}()
	h.QuantileLower(1.5)
}

func TestHistogramBucketsAccessor(t *testing.T) {
	h := &Histogram{}
	vals := []int64{0, 5, 5, 31, 32, 1000, 1 << 20, -3}
	for _, v := range vals {
		h.Observe(v)
	}
	bs := h.Buckets()
	var n uint64
	prev := int64(-1)
	for _, b := range bs {
		if b.Upper <= prev {
			t.Fatalf("buckets not ascending: %d after %d", b.Upper, prev)
		}
		prev = b.Upper
		if b.Upper != bucketUpper(b.Index) {
			t.Fatalf("bucket %d upper %d != bucketUpper %d", b.Index, b.Upper, bucketUpper(b.Index))
		}
		n += b.Count
	}
	if n != h.N() {
		t.Fatalf("bucket counts sum %d, want N %d", n, h.N())
	}
	for _, v := range vals {
		i := BucketIndex(v)
		if v < 0 {
			v = 0
		}
		if got := bucketOf(v); got != i {
			t.Fatalf("BucketIndex(%d) = %d, want %d", v, i, got)
		}
	}
}

// observeValues spans the exact octave and the log octaves up to 2^40 ns.
var observeValues = func() []int64 {
	var vs []int64
	for v := int64(0); v < 1<<40; v = v*3 + 1 {
		vs = append(vs, v)
	}
	return vs
}()

// TestHistogramObserveZeroAllocs: Observe updates fixed arrays in place,
// so it allocates nothing, which is what lets the million-client sweep
// keep a histogram per operation.
func TestHistogramObserveZeroAllocs(t *testing.T) {
	var h Histogram
	if a := testing.AllocsPerRun(1000, func() {
		for _, v := range observeValues {
			h.Observe(v)
		}
	}); a != 0 {
		t.Fatalf("Observe: %v allocs per pass, want 0", a)
	}
}

// BenchmarkHistogramObserve is the histogram layer's write: one
// observation, the values cycling through every octave up to 2^40.
func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(observeValues[i%len(observeValues)])
	}
}
