// Package baseline is the metric regression harness: it serializes a
// canonical snapshot of the observability probes' metrics (per-run
// totals plus the full phase-ledger snapshots from obs.Snapshot) to a
// JSON baseline file, and diffs a fresh run against a recorded one —
// exact matching for the deterministic integer ledgers, configurable
// relative tolerance for derived floats. `pentiumbench baseline
// record|check|diff` and the CI gate ride on it; BENCH_baseline.json at
// the repository root is the committed perf trajectory (DESIGN.md §10).
package baseline

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/obs"
)

// Schema is the current baseline file schema version. Bump on
// incompatible layout changes; Load rejects other versions.
const Schema = 1

// Run is the recorded state of one observed model run (one OS
// personality, or the hardware curve) of one experiment probe.
type Run struct {
	// Unit is the unit of Total ("µs" or "cycles").
	Unit string `json:"unit"`
	// Total is the run's total simulated time or cycles.
	Total float64 `json:"total"`
	// ProfileNs is the run's folded-profile weight in virtual
	// nanoseconds — the span-stream coverage, an integer ledger.
	ProfileNs int64 `json:"profile_ns"`
	// Metrics is the run's full metric snapshot (sorted names).
	Metrics obs.Snapshot `json:"metrics"`
}

// Experiment is the recorded state of one experiment probe: its runs,
// keyed by run label.
type Experiment struct {
	Title string         `json:"title"`
	Runs  map[string]Run `json:"runs"`
}

// File is one recorded baseline: the canonical metrics snapshot of a
// deterministic suite run. Everything in it is a pure function of
// (ids, seed) — the "runner." wall-clock self-metrics never appear,
// because per-run snapshots hold model metrics only.
type File struct {
	Schema int `json:"schema"`
	// IDs are the experiment probes recorded, in presentation order.
	IDs []string `json:"ids"`
	// Seed is the master RNG seed the probes ran under; check re-runs
	// with the same seed, making the gate self-contained.
	Seed uint64 `json:"seed"`
	// Experiments holds the recorded runs, keyed by experiment ID.
	Experiments map[string]Experiment `json:"experiments"`
}

// FromSuite captures a suite observation as a baseline, folding each
// observation (core.Observation.Fold) for its runs' profile weights.
func FromSuite(ids []string, seed uint64, s *core.SuiteObservation) *File {
	f := &File{Schema: Schema, IDs: append([]string(nil), ids...), Seed: seed,
		Experiments: make(map[string]Experiment, len(s.Observations))}
	for _, o := range s.Observations {
		o.Fold()
		exp := Experiment{Title: o.Title, Runs: make(map[string]Run, len(o.Runs))}
		for _, run := range o.Runs {
			exp.Runs[run.Label] = Run{
				Unit:      run.Unit,
				Total:     run.Total,
				ProfileNs: run.Profile.TotalNs(),
				Metrics:   run.Metrics,
			}
		}
		f.Experiments[o.ID] = exp
	}
	return f
}

// Marshal renders the baseline as indented JSON with sorted keys
// throughout (encoding/json sorts map keys; obs.Snapshot marshals its
// own sorted form), terminated by a newline — a stable, diffable file.
func (f *File) Marshal() ([]byte, error) {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Load parses and validates a baseline file.
func Load(data []byte) (*File, error) {
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	if f.Schema != Schema {
		return nil, fmt.Errorf("baseline: schema %d, want %d (re-record the baseline)", f.Schema, Schema)
	}
	if len(f.IDs) == 0 || len(f.Experiments) == 0 {
		return nil, fmt.Errorf("baseline: file records no experiments")
	}
	for _, id := range f.IDs {
		if _, ok := f.Experiments[id]; !ok {
			return nil, fmt.Errorf("baseline: id %q listed but not recorded", id)
		}
	}
	return &f, nil
}

// MetricCount returns the number of recorded comparison points: per
// run, the total and profile weight and every counter — matching
// Result.Compared on a structurally identical capture.
func (f *File) MetricCount() int {
	n := 0
	for _, exp := range f.Experiments {
		for _, run := range exp.Runs {
			n += 2 + len(run.Metrics.Counters)
		}
	}
	return n
}

// sortedKeys returns m's keys sorted, for deterministic walks.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
