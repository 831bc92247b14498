package memo

import (
	"encoding/binary"
	"errors"
	"math"
)

// AppendString appends s, its length first as a uvarint.
func AppendString[S ~string | ~[]byte](b []byte, s S) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// AppendBool appends v as one byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendFloat64 appends f's 8 IEEE bits, little-endian.
func AppendFloat64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// AppendList appends xs, their count first as a uvarint, then each item.
func AppendList[T any](b []byte, xs []T, appendItem func([]byte, T) []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(xs)))
	for _, x := range xs {
		b = appendItem(b, x)
	}
	return b
}

// Decoder reads what the Append functions and binary.AppendVarint wrote.
// The first malformed field stops it, and later reads return zero: a
// varint cut short, overflowing or not in its shortest form, a bool
// other than 0 or 1, or a count the bytes left cannot hold. So no count
// is allocated unchecked, and what decodes re-encodes to its own bytes.
type Decoder struct {
	b   []byte
	err error
}

// NewDecoder returns a Decoder reading data.
func NewDecoder(data []byte) *Decoder { return &Decoder{b: data} }

var errMalformed = errors.New("memo: malformed value")

func (d *Decoder) fail() { d.b, d.err = nil, errMalformed }

// take returns the next n bytes, which the caller has checked are left.
func (d *Decoder) take(n int) []byte {
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v
}

func (d *Decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 || n > 1 && d.b[n-1] == 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

// count reads the length of a list of items of at least size bytes.
func (d *Decoder) count(size int) int {
	if n := d.uvarint(); n <= uint64(len(d.b)/size) {
		return int(n)
	}
	d.fail()
	return 0
}

// Varint reads an integer.
func (d *Decoder) Varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1) // binary.Varint's zigzag
}

// Bool reads a bool; AppendBool's 0 and 1 are also uvarints.
func (d *Decoder) Bool() bool {
	v := d.uvarint()
	if v > 1 {
		d.fail()
	}
	return v == 1
}

// Str reads a string.
func (d *Decoder) Str() string { return string(d.take(d.count(1))) }

// Float64 reads a float64.
func (d *Decoder) Float64() float64 {
	if len(d.b) < 8 {
		d.fail()
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(d.take(8)))
}

// List reads a list of items of at least size bytes; empty reads as nil.
func List[T any](d *Decoder, size int, readItem func() T) []T {
	n := d.count(size)
	if n == 0 {
		return nil
	}
	xs := make([]T, n)
	for i := range xs {
		xs[i] = readItem()
	}
	return xs
}

// Finish reports the first malformed field, or bytes left unread.
func (d *Decoder) Finish() error {
	if len(d.b) > 0 {
		d.fail()
	}
	return d.err
}
