package core

import (
	"bytes"
	"encoding/json"

	"repro/internal/osprofile"
)

// memoSchema versions the persistent result-memo key. Bump it whenever
// the meaning of a stored Result changes — a model fix, a new noise
// stream, a renamed rendering-relevant field — so runs against an old
// store miss and recompute instead of replaying outdated results.
const memoSchema = 1

// memoKeyMaterial is the canonical key material for one experiment
// execution: everything its Result depends on. Profiles embed the
// complete calibrated personality JSON, so a -profiles file with one
// tweaked constant (or a -future run) keys differently from the paper
// set.
type memoKeyMaterial struct {
	Schema   int             `json:"schema"`
	ID       string          `json:"id"`
	Seed     uint64          `json:"seed"`
	Runs     int             `json:"runs"`
	RefModel bool            `json:"ref_model,omitempty"`
	Profiles json.RawMessage `json:"profiles"`
}

// memoKey builds the canonical key bytes for one experiment under cfg,
// or nil if the configuration cannot be serialized (which just disables
// memoization for the run — never an error).
func memoKey(cfg Config, id string) []byte {
	var prof bytes.Buffer
	if err := osprofile.WriteJSON(&prof, cfg.Profiles); err != nil {
		return nil
	}
	key, err := json.Marshal(memoKeyMaterial{
		Schema:   memoSchema,
		ID:       id,
		Seed:     cfg.Seed,
		Runs:     cfg.Runs,
		RefModel: cfg.UseRefModel,
		Profiles: prof.Bytes(),
	})
	if err != nil {
		return nil
	}
	return key
}

// runMemoized executes one experiment, serving its Result from the
// persistent store when one is attached and the key matches. Results
// round-trip JSON bit for bit (stats.Sample marshals its raw
// observations; encoding/json reproduces float64s exactly), so a warm
// run renders byte-identically to a cold one.
func runMemoized(cfg Config, e *Experiment) *Result {
	if cfg.Memo == nil {
		return e.Run(cfg)
	}
	key := memoKey(cfg, e.ID)
	if key == nil {
		return e.Run(cfg)
	}
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
