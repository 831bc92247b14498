package profile

import "io"

// WritePprof emits the profile as uncompressed pprof protobuf
// (github.com/google/pprof/proto/profile.proto), the format
// `go tool pprof` reads directly — pprof sniffs for gzip and falls back
// to raw protobuf, and skipping compression keeps the bytes a pure
// function of the samples. The encoder is hand-rolled varint/wire
// emission over the canonical sample order: no protobuf dependency, no
// maps at emission time, deterministic output.
//
// Layout: every unique frame name becomes one Function and one
// Location (ids are 1-based, assigned in first-use order along the
// canonical sample order); every folded stack becomes one Sample with
// two values — span count and self virtual nanoseconds — and pprof's
// leaf-first location order (the fold stores stacks root-first, so
// emission reverses). The period and default sample type advertise
// virtual time so `go tool pprof -top` ranks by it out of the box.
func (p *Profile) WritePprof(w io.Writer) error {
	e := &pprofEncoder{strIdx: map[string]int64{"": 0}, strs: []string{""}}

	// Sample types: [spans count, virtualtime nanoseconds].
	countType := e.valueType("spans", "count")
	timeType := e.valueType("virtualtime", "nanoseconds")

	locIdx := map[string]uint64{}
	var locs, funcs []byte
	var samples []byte
	for _, s := range p.sorted() {
		// Resolve each frame to a location id, creating on first use.
		ids := make([]uint64, len(s.Stack))
		for i, frame := range s.Stack {
			id, ok := locIdx[frame]
			if !ok {
				id = uint64(len(locIdx) + 1)
				locIdx[frame] = id
				// Function: id, name, system_name, filename.
				var fn []byte
				fn = appendUvarintField(fn, 1, id)
				fn = appendUvarintField(fn, 2, uint64(e.str(frame)))
				fn = appendUvarintField(fn, 3, uint64(e.str(frame)))
				fn = appendUvarintField(fn, 4, uint64(e.str("(virtual)")))
				funcs = appendBytesField(funcs, 5, fn)
				// Location: id, one Line pointing at the function.
				var line []byte
				line = appendUvarintField(line, 1, id)
				var loc []byte
				loc = appendUvarintField(loc, 1, id)
				loc = appendBytesField(loc, 4, line)
				locs = appendBytesField(locs, 4, loc)
			}
			ids[i] = id
		}
		// Sample: packed leaf-first location ids, packed values.
		var locPacked []byte
		for i := len(ids) - 1; i >= 0; i-- {
			locPacked = appendUvarint(locPacked, ids[i])
		}
		var valPacked []byte
		valPacked = appendUvarint(valPacked, uint64(s.Count))
		valPacked = appendUvarint(valPacked, uint64(s.SelfNs))
		var sample []byte
		sample = appendBytesField(sample, 1, locPacked)
		sample = appendBytesField(sample, 2, valPacked)
		samples = appendBytesField(samples, 2, sample)
	}

	var out []byte
	out = appendBytesField(out, 1, countType)
	out = appendBytesField(out, 1, timeType)
	out = append(out, samples...)
	out = append(out, locs...)
	out = append(out, funcs...)
	for _, s := range e.strs {
		out = appendBytesField(out, 6, []byte(s))
	}
	// duration_nanos: the profile-wide virtual weight.
	out = appendUvarintField(out, 10, uint64(p.TotalNs()))
	// period_type + period: one virtual nanosecond per unit, and the
	// default sample type is the time column.
	out = appendBytesField(out, 11, e.valueType("virtualtime", "nanoseconds"))
	out = appendUvarintField(out, 12, 1)
	out = appendUvarintField(out, 14, uint64(e.str("virtualtime")))

	_, err := w.Write(out)
	return err
}

// pprofEncoder interns strings into the profile string table.
type pprofEncoder struct {
	strIdx map[string]int64
	strs   []string
}

// str interns s and returns its string-table index.
func (e *pprofEncoder) str(s string) int64 {
	if i, ok := e.strIdx[s]; ok {
		return i
	}
	i := int64(len(e.strs))
	e.strIdx[s] = i
	e.strs = append(e.strs, s)
	return i
}

// valueType encodes a ValueType message {type, unit} as string indices.
func (e *pprofEncoder) valueType(typ, unit string) []byte {
	var b []byte
	b = appendUvarintField(b, 1, uint64(e.str(typ)))
	b = appendUvarintField(b, 2, uint64(e.str(unit)))
	return b
}

// appendUvarint appends v in protobuf base-128 varint encoding.
func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// appendUvarintField appends a varint-typed field (wire type 0).
// Skips zero values, matching proto3 default omission.
func appendUvarintField(b []byte, field int, v uint64) []byte {
	if v == 0 {
		return b
	}
	b = appendUvarint(b, uint64(field)<<3|0)
	return appendUvarint(b, v)
}

// appendBytesField appends a length-delimited field (wire type 2).
// Zero-length payloads are still emitted: the empty string at string
// table index 0 is mandatory in the pprof format.
func appendBytesField(b []byte, field int, payload []byte) []byte {
	b = appendUvarint(b, uint64(field)<<3|2)
	b = appendUvarint(b, uint64(len(payload)))
	return append(b, payload...)
}
