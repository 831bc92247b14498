package stats

import (
	"encoding/json"
	"math"
	"testing"
)

// TestSampleJSONRoundTripExact certifies the property the persistent
// result memo rests on: marshal/unmarshal reproduces every observation
// bit for bit (encoding/json prints float64s in shortest round-tripping
// form), so a memoized sample's Mean and StdDev match a fresh one's
// exactly.
func TestSampleJSONRoundTripExact(t *testing.T) {
	var s Sample
	// Awkward values: non-terminating binary fractions, subnormal-ish
	// magnitudes, extremes of the benchmark range.
	vals := []float64{0.1, 1.0 / 3.0, 123456.789012345, 5e-312, math.MaxFloat64 / 1e10, 0}
	for _, v := range vals {
		s.Add(v)
	}
	data, err := json.Marshal(&s)
	if err != nil {
		t.Fatal(err)
	}
	var back Sample
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.N() != s.N() {
		t.Fatalf("N = %d, want %d", back.N(), s.N())
	}
	for i, v := range back.values {
		if math.Float64bits(v) != math.Float64bits(vals[i]) {
			t.Errorf("value %d = %x, want %x", i, math.Float64bits(v), math.Float64bits(vals[i]))
		}
	}
	if math.Float64bits(back.Mean()) != math.Float64bits(s.Mean()) ||
		math.Float64bits(back.StdDev()) != math.Float64bits(s.StdDev()) {
		t.Fatal("summary statistics drifted across the round trip")
	}
}

func TestSampleJSONEmpty(t *testing.T) {
	var s Sample
	data, err := json.Marshal(&s)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "[]" {
		t.Fatalf("empty sample = %s, want []", data)
	}
	var back Sample
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.N() != 0 || back.Mean() != 0 {
		t.Fatalf("empty round trip: N=%d Mean=%v", back.N(), back.Mean())
	}
}

// BenchmarkSampleUnmarshal decodes one twenty-run sample, the unit every
// stored Result is made of.
func BenchmarkSampleUnmarshal(b *testing.B) {
	var s Sample
	for i := 0; i < 20; i++ {
		s.Add(1000 / (1 + float64(i)/7))
	}
	data, err := json.Marshal(&s)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var back Sample
		if err := back.UnmarshalJSON(data); err != nil {
			b.Fatal(err)
		}
	}
}
