package core

import (
	"encoding/json"
	"fmt"
	"slices"
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
// be built — runs the experiment unmemoized. Results round-trip JSON bit
// for bit (stats.Sample marshals its raw observations; encoding/json
// reproduces float64s exactly), so a warm run renders byte-identically
// to a cold one.
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
