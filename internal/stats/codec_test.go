package stats

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/memo"
)

// roundTrip encodes ss with AppendSamples and decodes them back, failing
// t unless the decode takes exactly the bytes written.
func roundTrip(t *testing.T, ss []*Sample) []*Sample {
	t.Helper()
	d := memo.NewDecoder(AppendSamples(nil, ss))
	back := DecodeSamples(d)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	return back
}

// TestSampleBinaryRoundTripExact certifies the property the persistent
// result memo rests on: a round trip through the store's binary form
// reproduces every observation bit for bit, so a memoized sample's Mean
// and StdDev match a fresh one's exactly. A nil sample comes back nil.
func TestSampleBinaryRoundTripExact(t *testing.T) {
	var s Sample
	// Awkward values: non-terminating binary fractions, subnormals,
	// extremes of the benchmark range, and the floats decimal JSON
	// cannot carry at all.
	vals := []float64{0.1, 1.0 / 3.0, 123456.789012345, 5e-312, 5e-324, math.MaxFloat64 / 1e10, 0,
		math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.Float64frombits(0x7ff8_0000_dead_beef)}
	for _, v := range vals {
		s.Add(v)
	}
	back := roundTrip(t, []*Sample{&s, nil})
	if len(back) != 2 || back[1] != nil {
		t.Fatalf("decoded %v, want the sample and nil", back)
	}
	if back[0].N() != s.N() {
		t.Fatalf("N = %d, want %d", back[0].N(), s.N())
	}
	for i, v := range back[0].values {
		if math.Float64bits(v) != math.Float64bits(vals[i]) {
			t.Errorf("value %d = %x, want %x", i, math.Float64bits(v), math.Float64bits(vals[i]))
		}
	}
	s.values = s.values[:7] // the finite values, whose summaries are numbers
	back = roundTrip(t, []*Sample{&s})
	if math.Float64bits(back[0].Mean()) != math.Float64bits(s.Mean()) ||
		math.Float64bits(back[0].StdDev()) != math.Float64bits(s.StdDev()) {
		t.Fatal("summary statistics drifted across the round trip")
	}
}

func TestSampleBinaryEmpty(t *testing.T) {
	var s Sample
	data, err := json.Marshal(&s)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "[]" {
		t.Fatalf("empty sample = %s, want []", data)
	}
	back := roundTrip(t, []*Sample{&s})
	if len(back) != 1 || back[0] == nil || back[0].N() != 0 || back[0].Mean() != 0 {
		t.Fatalf("empty round trip: %v", back)
	}
	if back := roundTrip(t, nil); back != nil {
		t.Fatalf("no samples decoded as %v, want nil", back)
	}
}

// A series' decoded samples share one backing array, each capped at its
// own observations: an Add to one sample must leave the next intact,
// and the decode must deep-equal the samples encoded, nil and empty
// ones included.
func TestDecodedSamplesDoNotShareObservations(t *testing.T) {
	mk := func(vs ...float64) *Sample {
		s := new(Sample)
		for _, v := range vs {
			s.Add(v)
		}
		return s
	}
	in := []*Sample{mk(1, 2), nil, mk(3), mk(), mk(4, 5, 6)}
	back := roundTrip(t, in)
	if !reflect.DeepEqual(back, in) {
		t.Fatalf("decoded %v, want %v", back, in)
	}
	for i, s := range back {
		if s != nil {
			s.Add(float64(-i))
		}
	}
	want := []*Sample{mk(1, 2, 0), nil, mk(3, -2), mk(-3), mk(4, 5, 6, -4)}
	if !reflect.DeepEqual(back, want) {
		t.Fatalf("after an Add to each sample: %v, want %v", back, want)
	}
}
