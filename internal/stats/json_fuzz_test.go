package stats

import (
	"encoding/json"
	"math"
	"testing"
)

// FuzzSampleJSON holds Sample.UnmarshalJSON to json.Unmarshal into a
// []float64: on every input both must accept or both reject, and
// accepted values must agree bit for bit. Every accepted sample's
// MarshalJSON output must decode back to the same bits. The seed corpus
// in testdata/fuzz holds the edge cases on both sides: null, an empty
// array, null elements, -0, the smallest subnormal, an overflow, a
// trailing comma, a leading zero and a missing comma.
func FuzzSampleJSON(f *testing.F) {
	var run Sample
	for i := 0; i < 20; i++ {
		run.Add(1000 / (1 + float64(i)/7))
	}
	seed, err := run.MarshalJSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		var want []float64
		wantErr := json.Unmarshal(data, &want)
		var s Sample
		if err := s.UnmarshalJSON(data); (err == nil) != (wantErr == nil) {
			t.Fatalf("%q: UnmarshalJSON error %v, json.Unmarshal error %v", data, err, wantErr)
		} else if err != nil {
			return
		}
		if (s.values == nil) != (want == nil) {
			t.Fatalf("%q: decoded %#v, want %#v", data, s.values, want)
		}
		sameBits(t, data, s.values, want)
		m, err := s.MarshalJSON()
		if err != nil {
			t.Fatalf("marshal of accepted %q: %v", data, err)
		}
		var back Sample
		if err := back.UnmarshalJSON(m); err != nil {
			t.Fatalf("re-decode of %s (from %q): %v", m, data, err)
		}
		sameBits(t, m, back.values, s.values)
	})
}

// sameBits fails t unless got and want hold the same float64 bits.
func sameBits(t *testing.T, data []byte, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%q: decoded %v, want %v", data, got, want)
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%q: value %d = %x, want %x", data, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}
