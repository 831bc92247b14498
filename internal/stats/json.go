package stats

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
)

// MarshalJSON encodes the sample as its observation array, in insertion
// order. encoding/json prints float64s in their shortest round-tripping
// form, so a marshal/unmarshal cycle reproduces the sample bit for bit —
// the property the persistent result memo depends on (a memoized
// experiment must render byte-identically to a fresh one).
func (s *Sample) MarshalJSON() ([]byte, error) {
	if s.values == nil {
		return []byte("[]"), nil
	}
	return json.Marshal(s.values)
}

// UnmarshalJSON restores a sample from its observation array in one pass
// over data. It accepts exactly what json.Unmarshal into a []float64
// accepts — null, or an array whose elements are JSON numbers or null (a
// null element reads as 0) — and converts each number with
// strconv.ParseFloat as encoding/json does, so every value keeps its
// bits. A warm memo replay decodes every stored sample through it.
func (s *Sample) UnmarshalJSON(data []byte) error {
	s.values = nil
	i := skipSpace(data, 0)
	if bytes.HasPrefix(data[i:], jsonNull) {
		return sampleEnd(data, i+len(jsonNull))
	}
	if i == len(data) || data[i] != '[' {
		return sampleSyntax(data, i)
	}
	// Twenty runs fit the stack buffer, so a sample costs one allocation.
	var buf [32]float64
	vals := buf[:0]
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == ']' {
		i++
	} else {
		for {
			v := 0.0
			if bytes.HasPrefix(data[i:], jsonNull) {
				i += len(jsonNull)
			} else {
				j := numberEnd(data, i)
				if j < 0 {
					return sampleSyntax(data, i)
				}
				var err error
				if v, err = strconv.ParseFloat(string(data[i:j]), 64); err != nil {
					return fmt.Errorf("stats: sample: %w", err)
				}
				i = j
			}
			vals = append(vals, v)
			i = skipSpace(data, i)
			if i < len(data) && data[i] == ']' {
				i++
				break
			}
			if i == len(data) || data[i] != ',' {
				return sampleSyntax(data, i)
			}
			i = skipSpace(data, i+1)
		}
	}
	if err := sampleEnd(data, i); err != nil {
		return err
	}
	s.values = make([]float64, len(vals))
	copy(s.values, vals)
	return nil
}

var jsonNull = []byte("null")

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\t' || data[i] == '\n' || data[i] == '\r') {
		i++
	}
	return i
}

// numberEnd returns the end of the JSON number starting at i —
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? — or -1 if no number
// starts there. A number's end is not checked against what follows it:
// the caller requires a separator there.
func numberEnd(data []byte, i int) int {
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		i = digitsEnd(data, i)
	default:
		return -1
	}
	if i < len(data) && data[i] == '.' {
		if i = digitsEnd(data, i+1); i < 0 {
			return -1
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i = digitsEnd(data, i); i < 0 {
			return -1
		}
	}
	return i
}

// digitsEnd returns the end of the run of one or more decimal digits
// starting at i, or -1 if none starts there.
func digitsEnd(data []byte, i int) int {
	j := i
	for j < len(data) && '0' <= data[j] && data[j] <= '9' {
		j++
	}
	if j == i {
		return -1
	}
	return j
}

// sampleEnd accepts only whitespace from i to the end of data.
func sampleEnd(data []byte, i int) error {
	if i = skipSpace(data, i); i != len(data) {
		return sampleSyntax(data, i)
	}
	return nil
}

// sampleSyntax reports the byte at i, or the end of data, as unexpected.
func sampleSyntax(data []byte, i int) error {
	if i == len(data) {
		return fmt.Errorf("stats: sample JSON ends early at offset %d", i)
	}
	return fmt.Errorf("stats: sample JSON: unexpected %q at offset %d", data[i], i)
}
