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
