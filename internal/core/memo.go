package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"slices"

	"repro/internal/memo"
	"repro/internal/stats"
)

// memoSchema versions the persistent result-memo key. Bump it whenever
// the meaning of a stored Result changes — a model fix, a new noise
// stream, a renamed rendering-relevant field — so runs against an old
// store miss and recompute instead of replaying outdated results.
const memoSchema = 1

// memoKeys encodes, once per suite run, the key material its
// experiments share — the memo schema version, seed, run count and the
// complete calibrated personality JSON, so that a -profiles file with one
// tweaked constant (or a -future run) keys differently from the paper
// set — and returns the function that builds one experiment's key from
// it: the compact JSON object
//
//	{"schema":…,"id":…,"seed":…,"runs":…,"profiles":[…]}
//
// A key's SHA-256 names its store entry, so these bytes are pinned
// (TestMemoKeyPinned). memoKeys returns nil if the configuration cannot
// be serialized, which just disables memoization for the run — never an
// error.
func memoKeys(cfg Config) func(id string) []byte {
	prof, err := json.Marshal(cfg.Profiles)
	if err != nil {
		return nil
	}
	tail := fmt.Appendf(nil, `,"seed":%d,"runs":%d,"profiles":%s}`, cfg.Seed, cfg.Runs, prof)
	return func(id string) []byte {
		quoted, _ := json.Marshal(id) // a string always encodes
		return slices.Concat(fmt.Appendf(nil, `{"schema":%d,"id":%s`, memoSchema, quoted), tail)
	}
}

// runMemoized executes one experiment, serving its Result from the
// persistent store cfg.Memo when the key matches. keyOf builds the
// experiment's key (memoKeys); nil — no store attached, or no key could
// be built — runs the experiment unmemoized. Results round-trip the
// store bit for bit (MarshalBinary), so a warm run renders
// byte-identically to a cold one.
func runMemoized(cfg Config, e *Experiment, keyOf func(id string) []byte) *Result {
	if keyOf == nil {
		return e.Run(cfg)
	}
	key := keyOf(e.ID)
	res := new(Result)
	if cfg.Memo.Get(key, res) {
		return res
	}
	out := e.Run(cfg)
	// Best effort: a failed write (full disk, permissions) costs only the
	// next run's warm start, never this run's result.
	_ = cfg.Memo.Put(key, out)
	return out
}

// MarshalBinary encodes r for the memo store, field by field in order,
// into one buffer sized by binarySize.
func (r *Result) MarshalBinary() ([]byte, error) {
	b := memo.AppendString(memo.AppendString(make([]byte, 0, r.binarySize()), r.ID), r.Title)
	b = memo.AppendString(memo.AppendString(binary.AppendVarint(b, int64(r.Kind)), r.YUnit), r.XLabel)
	b = binary.AppendVarint(memo.AppendBool(b, r.LogX), int64(r.Direction))
	b = memo.AppendList(b, r.Series, func(b []byte, s Series) []byte {
		return stats.AppendSamples(memo.AppendList(memo.AppendString(b, s.Label), s.X, memo.AppendFloat64), s.Samples)
	})
	b = memo.AppendList(b, r.Expected, func(b []byte, e Expectation) []byte {
		return memo.AppendFloat64(memo.AppendFloat64(memo.AppendString(b, e.Label), e.Mean), e.StdDevPct)
	})
	return memo.AppendList(b, r.Notes, memo.AppendString), nil
}

// binarySize bounds the bytes MarshalBinary writes: every integer, length
// and count at its longest varint, every string and float in full.
func (r *Result) binarySize() int {
	const v = binary.MaxVarintLen64
	n := 10*v + len(r.ID) + len(r.Title) + len(r.YUnit) + len(r.XLabel)
	for _, s := range r.Series {
		n += 3*v + len(s.Label) + 8*len(s.X)
		for _, smp := range s.Samples {
			if n++; smp != nil {
				n += v + 8*smp.N()
			}
		}
	}
	for _, e := range r.Expected {
		n += v + len(e.Label) + 16
	}
	for _, note := range r.Notes {
		n += v + len(note)
	}
	return n
}

// UnmarshalBinary decodes what MarshalBinary wrote, an empty slice as
// nil, and refuses malformed data and trailing bytes.
func (r *Result) UnmarshalBinary(data []byte) error {
	d := memo.NewDecoder(data)
	// The reads run in the order they are written: left to right.
	*r = Result{ID: d.Str(), Title: d.Str(), Kind: Kind(d.Varint()), YUnit: d.Str(), XLabel: d.Str(),
		LogX: d.Bool(), Direction: stats.Direction(d.Varint()),
		Series: memo.List(d, 3, func() Series { // a label, X's count and the samples' count
			return Series{Label: d.Str(), X: memo.List(d, 8, d.Float64), Samples: stats.DecodeSamples(d)}
		}),
		Expected: memo.List(d, 17, func() Expectation { // a label and two floats
			return Expectation{Label: d.Str(), Mean: d.Float64(), StdDevPct: d.Float64()}
		}),
		Notes: memo.List(d, 1, d.Str)}
	return d.Finish()
}
