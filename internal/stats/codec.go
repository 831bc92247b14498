package stats

import (
	"encoding/json"
	"slices"
	"sync"

	"repro/internal/memo"
)

// MarshalJSON encodes the sample as its observation array, in insertion
// order.
func (s *Sample) MarshalJSON() ([]byte, error) {
	if s.values == nil {
		return []byte("[]"), nil
	}
	return json.Marshal(s.values)
}

// AppendSamples appends ss for the memo store: per sample whether it is
// non-nil, then the bits of its observations, which DecodeSamples restores.
func AppendSamples(b []byte, ss []*Sample) []byte {
	return memo.AppendList(b, ss, func(b []byte, s *Sample) []byte {
		if b = memo.AppendBool(b, s != nil); s != nil {
			b = memo.AppendList(b, s.values, memo.AppendFloat64)
		}
		return b
	})
}

// seriesScratch holds a series' observations while DecodeSamples reads
// them, before their count is known.
var seriesScratch = sync.Pool{New: func() any { return new([]float64) }}

// DecodeSamples reads what AppendSamples wrote; no samples read as nil.
// The samples share one []Sample and their observations one []float64,
// read once into a reused scratch slice and then copied to an array of
// their exact count. Each sample's observations are capacity-capped, so
// an Add copies them out instead of overwriting the next sample's.
func DecodeSamples(d *memo.Decoder) []*Sample {
	peek := *d // reads the sample count, checked against the bytes left
	samples := make([]Sample, len(memo.List(&peek, 1, func() struct{} { return struct{}{} })))
	scratch := seriesScratch.Get().(*[]float64)
	obs, next := (*scratch)[:0], samples
	ss := memo.List(d, 1, func() *Sample {
		if !d.Bool() {
			return nil
		}
		s, start := &next[0], len(obs)
		next = next[1:]
		memo.List(d, 8, func() struct{} { obs = append(obs, d.Float64()); return struct{}{} })
		s.values = obs[start:] // for its length: obs may move as it grows
		return s
	})
	values := slices.Clone(obs)
	for i := range samples[:len(samples)-len(next)] {
		k := len(samples[i].values)
		samples[i].values = nil
		if k > 0 {
			samples[i].values, values = values[:k:k], values[k:]
		}
	}
	*scratch = obs
	seriesScratch.Put(scratch)
	return ss
}
