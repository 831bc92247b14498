package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
)

// Histogram is a fixed-boundary log-bucket histogram of non-negative
// int64 observations (latencies in virtual nanoseconds, in this
// repository). The bucket boundaries are a pure function of the value —
// 32 sub-buckets per power of two, values below 32 recorded exactly — so
// two histograms built from the same observations in any order, on any
// worker, are identical field for field, and merging is exact integer
// addition. Memory is constant: no observation is ever stored, which is
// what lets a million-client sweep report percentiles in O(1) space per
// operation.
//
// The relative quantization error of a bucket is below 1/32 (~3.1%);
// Quantile returns a bucket's upper boundary, so reported percentiles
// never understate the observed latency by more than one bucket width.
//
// The zero value is an empty histogram ready to use.
type Histogram struct {
	counts [histBuckets]uint64
	n      uint64
	sum    int64
	max    int64
}

// Log-bucket geometry: histSubBits sub-buckets per octave. Values in
// [0, histSubBuckets) map to their own exact bucket; a value v >= 32 with
// top bit e maps to octave e-histSubBits+1, sub-bucket given by the
// histSubBits bits below the top bit.
const (
	histSubBits    = 5
	histSubBuckets = 1 << histSubBits // 32
	// histBuckets covers every non-negative int64: octave 0 (exact
	// values 0..31) plus 58 log octaves of 32 sub-buckets.
	histBuckets = histSubBuckets * (64 - histSubBits + 1)
)

// bucketOf maps a non-negative value to its bucket index.
func bucketOf(v int64) int {
	if v < histSubBuckets {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // top set bit, >= histSubBits
	shift := uint(e - histSubBits)
	// v>>shift lies in [32, 64), so octave e's buckets follow octave
	// e-1's contiguously.
	return histSubBuckets*(e-histSubBits) + int(uint64(v)>>shift)
}

// bucketUpper returns the largest value mapping to bucket i (the
// boundary Quantile reports).
func bucketUpper(i int) int64 {
	return bucketLower(i) + bucketWidth(i) - 1
}

// bucketLower returns the smallest value mapping to bucket i (the
// boundary QuantileLower reports).
func bucketLower(i int) int64 {
	if i < histSubBuckets {
		return int64(i)
	}
	t := i / histSubBuckets // >= 1; the octave offset
	shift := uint(t - 1)
	s := int64(i - histSubBuckets*(t-1)) // in [32, 64)
	return s << shift
}

// bucketWidth returns the number of values bucket i covers: 1 in the
// exact octave, doubling each octave after.
func bucketWidth(i int) int64 {
	if i < histSubBuckets {
		return 1
	}
	return int64(1) << uint(i/histSubBuckets-1)
}

// BucketIndex maps a value to its histogram bucket index — the same
// function Observe applies, exported so exemplars can be attached to the
// bucket their latency lands in. Negative values clamp to zero, exactly
// as Observe does.
func BucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	return bucketOf(v)
}

// Bucket is one non-empty histogram bucket: its index, inclusive upper
// boundary, and count.
type Bucket struct {
	Index int
	Upper int64
	Count uint64
}

// Buckets returns the non-empty buckets in ascending boundary order.
// Cumulating the counts reproduces exactly the ranks Quantile walks —
// the shape a Prometheus histogram exposition needs.
func (h *Histogram) Buckets() []Bucket {
	var out []Bucket
	for i, c := range h.counts {
		if c != 0 {
			out = append(out, Bucket{Index: i, Upper: bucketUpper(i), Count: c})
		}
	}
	return out
}

// Observe records one observation. Negative values clamp to zero (the
// histogram holds durations, and virtual time is monotonic — a negative
// duration is a model bug upstream, not a value to bucket).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// N returns the number of observations.
func (h *Histogram) N() uint64 { return h.n }

// Sum returns the exact sum of all observations (negatives clamped).
func (h *Histogram) Sum() int64 { return h.sum }

// Max returns the largest observation, exactly (not bucket-quantized).
func (h *Histogram) Max() int64 { return h.max }

// Quantile returns the q-quantile (0 <= q <= 1) by the nearest-rank
// rule: the upper boundary of the bucket holding the ceil(q*N)-th
// smallest observation. Q(0) is the first bucket's boundary, Q(1) the
// last's. An empty histogram returns 0. Out-of-range q panics: a caller
// asking for p-120 has a bug worth surfacing.
//
// The upper boundary is the conservative choice for latency reporting —
// a quoted p99 is never below the true p99 — but it overstates by up to
// one bucket width. The same bucket's lower boundary (QuantileLower in
// the package tests) brackets the exact quantile from below:
//
//	QuantileLower(q) <= exact q-quantile <= Quantile(q)
//
// with the bracket width under 1/32 (~3.1%) of the value, and zero for
// values below 32, which occupy exact unit buckets.
func (h *Histogram) Quantile(q float64) int64 {
	i := h.quantileBucket(q)
	if i < 0 {
		return 0
	}
	return bucketUpper(i)
}

// quantileBucket finds the bucket holding the nearest-rank observation
// for q, or -1 when the histogram is empty.
func (h *Histogram) quantileBucket(q float64) int {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v outside [0,1]", q))
	}
	if h.n == 0 {
		return -1
	}
	// Nearest rank: k in [1, n].
	k := uint64(q * float64(h.n))
	if float64(k) < q*float64(h.n) {
		k++
	}
	if k < 1 {
		k = 1
	}
	if k > h.n {
		k = h.n
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= k {
			return i
		}
	}
	// Unreachable: counts sum to n.
	return histBuckets - 1
}

// Merge adds every bucket of o into h — exact integer addition, so
// merging per-shard histograms in any order yields the same result as
// observing the union directly. When the merged n would wrap, or a
// bucket count or the sum would pass math.MaxInt64, the most the JSON
// form carries, Merge returns an error and leaves h unchanged.
func (h *Histogram) Merge(o *Histogram) error {
	if o == nil {
		return nil
	}
	sum := h.sum + o.sum
	if h.n+o.n < h.n || (sum < h.sum) != (o.sum < 0) {
		return fmt.Errorf("stats: histogram merge overflows its count or sum")
	}
	for i, c := range o.counts {
		if t := h.counts[i] + c; t < c || t > math.MaxInt64 {
			return fmt.Errorf("stats: histogram merge overflows bucket %d", i)
		}
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum = sum
	h.max = max(h.max, o.max)
	return nil
}

// histogramJSON is the wire form: sparse [bucket, count] pairs in
// ascending bucket order (deterministic — no map iteration), plus the
// exact sum and max that buckets alone cannot reproduce.
type histogramJSON struct {
	N       uint64     `json:"n"`
	Sum     int64      `json:"sum"`
	Max     int64      `json:"max"`
	Buckets [][2]int64 `json:"buckets"`
}

// MarshalJSON encodes the histogram sparsely and deterministically:
// identical histograms marshal to identical bytes.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	enc := histogramJSON{N: h.n, Sum: h.sum, Max: h.max}
	for i, c := range h.counts {
		if c != 0 {
			enc.Buckets = append(enc.Buckets, [2]int64{int64(i), int64(c)})
		}
	}
	return json.Marshal(enc)
}

// UnmarshalJSON restores a histogram from its wire form. A round trip
// reproduces the histogram field for field. It rejects any input its
// buckets cannot hold: an index outside the table, repeated or out of the
// ascending order MarshalJSON writes; a negative count; an n other than
// the counts' sum; a max outside the top non-empty bucket (or nonzero
// when there is none); and a sum outside [Σ count·lower, Σ count·upper].
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var enc histogramJSON
	if err := json.Unmarshal(data, &enc); err != nil {
		return err
	}
	*h = Histogram{}
	var n, lowSum, highSum uint64
	var maxLo, maxHi int64 // the top non-empty bucket's bounds
	prev := int64(-1)
	for _, b := range enc.Buckets {
		if b[0] < 0 || b[0] >= histBuckets {
			return fmt.Errorf("stats: histogram bucket %d outside [0,%d)", b[0], histBuckets)
		}
		if b[0] <= prev {
			return fmt.Errorf("stats: histogram bucket %d after bucket %d; indices must ascend", b[0], prev)
		}
		if b[1] < 0 {
			return fmt.Errorf("stats: negative histogram count %d", b[1])
		}
		i, c := int(b[0]), uint64(b[1])
		if prev = b[0]; n+c < n {
			return fmt.Errorf("stats: histogram counts overflow")
		}
		if n += c; c != 0 {
			maxLo, maxHi = bucketLower(i), bucketUpper(i)
			lowSum = satMulAdd(lowSum, c, uint64(maxLo))
			highSum = satMulAdd(highSum, c, uint64(maxHi))
		}
		h.counts[i] = c
	}
	switch {
	case n != enc.N:
		return fmt.Errorf("stats: histogram n %d, but its buckets count %d", enc.N, n)
	case enc.Max < maxLo || enc.Max > maxHi:
		return fmt.Errorf("stats: histogram max %d outside its top bucket [%d,%d]", enc.Max, maxLo, maxHi)
	case enc.Sum < 0 || uint64(enc.Sum) < lowSum || uint64(enc.Sum) > highSum:
		return fmt.Errorf("stats: histogram sum %d outside what its buckets hold", enc.Sum)
	}
	h.n, h.sum, h.max = enc.N, enc.Sum, enc.Max
	return nil
}

// satMulAdd returns acc + c·v, saturated at 1<<63, which is above every
// int64, so a saturated bound still compares correctly with a sum.
func satMulAdd(acc, c, v uint64) uint64 {
	const limit = 1 << 63
	if hi, lo := bits.Mul64(c, v); hi == 0 && lo < limit && acc+lo < limit {
		return acc + lo
	}
	return limit
}
