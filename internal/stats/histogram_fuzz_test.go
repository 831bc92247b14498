package stats

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzHistogramJSON feeds arbitrary bytes to UnmarshalJSON. Every input
// it accepts must re-marshal to a fixed point, and every quantile of it
// must lie in [0, upper bound of the top non-empty bucket]. The seed
// corpus in testdata/fuzz holds hand-written inputs on both sides of each
// rule; the seed added here is a histogram Observe built.
func FuzzHistogramJSON(f *testing.F) {
	full := &Histogram{}
	for v := int64(0); v < 1<<40; v = v*3 + 1 {
		full.Observe(v)
	}
	seed, _ := json.Marshal(full)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		var h Histogram
		if json.Unmarshal(data, &h) != nil {
			return
		}
		m1, err := json.Marshal(&h)
		if err != nil {
			t.Fatalf("marshal of accepted %s: %v", data, err)
		}
		var back Histogram
		if err := json.Unmarshal(m1, &back); err != nil {
			t.Fatalf("re-decode of %s (from %s): %v", m1, data, err)
		}
		if m2, _ := json.Marshal(&back); back != h || !bytes.Equal(m1, m2) {
			t.Fatalf("re-marshal is not a fixed point: %s then %s (from %s)", m1, m2, data)
		}
		var top int64
		if b := h.Buckets(); len(b) > 0 {
			top = b[len(b)-1].Upper
		}
		for _, q := range []float64{0, 0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			if v := h.Quantile(q); v < 0 || v > top {
				t.Fatalf("Quantile(%v) = %d outside [0, %d] for %s", q, v, top, data)
			}
			if v := h.QuantileLower(q); v < 0 || v > top {
				t.Fatalf("QuantileLower(%v) = %d outside [0, %d] for %s", q, v, top, data)
			}
		}
	})
}

// FuzzHistogramMerge decodes two histograms from the fuzzed bytes,
// skipping the input when either is refused, and merges them both ways.
// The merges must agree; a merge Merge refuses must leave its histogram
// unchanged; an accepted one must add n and every bucket, and its JSON
// must decode back to it. The seed corpus in testdata/fuzz holds two
// histograms of one observation of 2^62 each, whose sum would wrap.
func FuzzHistogramMerge(f *testing.F) {
	var a, b Histogram
	for v := int64(0); v < 1<<40; v = v*5 + 3 {
		a.Observe(v)
		b.Observe(v / 3)
	}
	ja, _ := json.Marshal(&a)
	jb, _ := json.Marshal(&b)
	f.Add(ja, jb)
	f.Fuzz(func(t *testing.T, da, db []byte) {
		var a, b Histogram
		if json.Unmarshal(da, &a) != nil || json.Unmarshal(db, &b) != nil {
			return
		}
		ab, ba := a, b
		errAB, errBA := ab.Merge(&b), ba.Merge(&a)
		if (errAB == nil) != (errBA == nil) || ab != ba && errAB == nil {
			t.Fatalf("a⊕b (err %v) differs from b⊕a (err %v) for %s and %s", errAB, errBA, da, db)
		}
		if errAB != nil {
			if ab != a || ba != b {
				t.Fatalf("refused merge (%v) changed its histogram for %s and %s", errAB, da, db)
			}
			return
		}
		if ab.N() != a.N()+b.N() {
			t.Fatalf("merged n %d, want %d + %d", ab.N(), a.N(), b.N())
		}
		for i := range ab.counts {
			if ab.counts[i] != a.counts[i]+b.counts[i] {
				t.Fatalf("merged bucket %d holds %d, want %d + %d", i, ab.counts[i], a.counts[i], b.counts[i])
			}
		}
		m, err := json.Marshal(&ab)
		if err != nil {
			t.Fatal(err)
		}
		var back Histogram
		if err := json.Unmarshal(m, &back); err != nil || back != ab {
			t.Fatalf("merge of %s and %s does not round-trip its JSON %s: %v", da, db, m, err)
		}
	})
}
