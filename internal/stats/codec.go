package stats

import (
	"encoding/json"

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

// DecodeSamples reads what AppendSamples wrote; no samples read as nil.
func DecodeSamples(d *memo.Decoder) []*Sample {
	return memo.List(d, 1, func() *Sample {
		if !d.Bool() {
			return nil
		}
		return &Sample{values: memo.List(d, 8, d.Float64)}
	})
}
