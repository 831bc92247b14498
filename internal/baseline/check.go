package baseline

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/obs"
)

// DefaultTolerance is the relative tolerance applied to non-integer
// (derived float) metrics. The suite is deterministic, so drift beyond
// float re-association noise is a real change; 1e-9 matches the
// tolerance the attribution tests use.
const DefaultTolerance = 1e-9

// Violation is one metric that moved outside its matching rule.
type Violation struct {
	// Metric is the full path: "F12 / Linux 1.2.8 / fs.phase_us.metasync".
	Metric string
	// Kind classifies the failure: "changed" (exact integer ledger
	// mismatch), "drift" (float beyond tolerance), "missing" (recorded
	// but absent now), "added" (present now but not recorded).
	Kind string
	// Base and Cur are the recorded and current values (NaN when the
	// side does not exist).
	Base, Cur float64
	// Rel is the relative magnitude of the change, the ranking key.
	// Missing/added metrics rank as +Inf.
	Rel float64
}

// Result is the outcome of one baseline comparison.
type Result struct {
	// Compared counts the comparison points examined.
	Compared int
	// Violations holds every mismatch, ranked by Rel descending (ties
	// by metric path), so the worst regression leads the table.
	Violations []Violation
}

// OK reports a clean comparison.
func (r *Result) OK() bool { return len(r.Violations) == 0 }

// isIntegral reports whether v is an exactly-representable integer —
// the marker for deterministic integer ledgers (span counts, integer
// phase ledgers, event totals), which must match exactly.
func isIntegral(v float64) bool {
	return v == math.Trunc(v) && math.Abs(v) < 1<<53
}

// isFinite reports whether v is an ordinary number (not NaN, not ±Inf).
func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// relDelta returns |cur-base| scaled by the larger magnitude. Both
// inputs are finite and unequal when this is called, so the scale is
// nonzero (a 0 vs 0 pair already matched exactly) and the zero-recorded
// case (0 → ε) yields rel = 1 rather than a division by zero.
func relDelta(base, cur float64) float64 {
	scale := math.Max(math.Abs(base), math.Abs(cur))
	if scale == 0 {
		return 0
	}
	return math.Abs(cur-base) / scale
}

// compare applies the matching rule for one scalar: integral baseline
// values must match exactly; floats get the relative tolerance.
func (r *Result) compare(path string, base, cur, tol float64) {
	r.Compared++
	if base == cur || (math.IsNaN(base) && math.IsNaN(cur)) {
		return
	}
	// One side NaN or Inf poisons relDelta into NaN, and NaN > tol is
	// false for every tolerance — without this branch such a change
	// would pass silently. A non-finite value appearing (or healing) is
	// always a hard violation, ranked with the missing/added ones.
	if !isFinite(base) || !isFinite(cur) {
		r.Violations = append(r.Violations, Violation{Metric: path, Kind: "changed", Base: base, Cur: cur, Rel: math.Inf(1)})
		return
	}
	rel := relDelta(base, cur)
	if isIntegral(base) {
		r.Violations = append(r.Violations, Violation{Metric: path, Kind: "changed", Base: base, Cur: cur, Rel: rel})
		return
	}
	if rel > tol {
		r.Violations = append(r.Violations, Violation{Metric: path, Kind: "drift", Base: base, Cur: cur, Rel: rel})
	}
}

func (r *Result) missing(path string, base float64) {
	r.Compared++
	r.Violations = append(r.Violations, Violation{Metric: path, Kind: "missing", Base: base, Cur: math.NaN(), Rel: math.Inf(1)})
}

func (r *Result) added(path string, cur float64) {
	r.Compared++
	r.Violations = append(r.Violations, Violation{Metric: path, Kind: "added", Base: math.NaN(), Cur: cur, Rel: math.Inf(1)})
}

// Compare diffs the current capture against the recorded baseline.
// tol <= 0 selects DefaultTolerance. Every recorded experiment, run and
// metric must still exist with a matching value; metrics that appear
// only in the current capture are violations too (they change the
// perf surface and belong in a re-recorded baseline).
func Compare(base, cur *File, tol float64) *Result {
	if tol <= 0 {
		tol = DefaultTolerance
	}
	res := &Result{}
	for _, id := range sortedKeys(base.Experiments) {
		bexp := base.Experiments[id]
		cexp, ok := cur.Experiments[id]
		if !ok {
			for _, label := range sortedKeys(bexp.Runs) {
				res.missing(id+" / "+label, bexp.Runs[label].Total)
			}
			continue
		}
		for _, label := range sortedKeys(bexp.Runs) {
			brun := bexp.Runs[label]
			crun, ok := cexp.Runs[label]
			path := id + " / " + label
			if !ok {
				res.missing(path, brun.Total)
				continue
			}
			res.compare(path+" / total("+brun.Unit+")", brun.Total, crun.Total, tol)
			res.compare(path+" / profile_ns", float64(brun.ProfileNs), float64(crun.ProfileNs), tol)
			compareSnapshots(res, path, brun.Metrics, crun.Metrics, tol)
		}
		for _, label := range sortedKeys(cexp.Runs) {
			if _, ok := bexp.Runs[label]; !ok {
				res.added(id+" / "+label, cexp.Runs[label].Total)
			}
		}
	}
	for _, id := range sortedKeys(cur.Experiments) {
		if _, ok := base.Experiments[id]; !ok {
			for _, label := range sortedKeys(cur.Experiments[id].Runs) {
				res.added(id+" / "+label, cur.Experiments[id].Runs[label].Total)
			}
		}
	}
	sort.SliceStable(res.Violations, func(i, j int) bool {
		vi, vj := res.Violations[i], res.Violations[j]
		if vi.Rel != vj.Rel {
			// NaN never occurs in Rel; +Inf (missing/added) sorts first.
			return vi.Rel > vj.Rel
		}
		return vi.Metric < vj.Metric
	})
	return res
}

// compareSnapshots diffs two metric snapshots' counters under the run
// path.
func compareSnapshots(res *Result, path string, base, cur obs.Snapshot, tol float64) {
	curC := make(map[string]float64, len(cur.Counters))
	for _, c := range cur.Counters {
		curC[c.Name] = c.Value
	}
	for _, c := range base.Counters {
		v, ok := curC[c.Name]
		if !ok {
			res.missing(path+" / "+c.Name, c.Value)
			continue
		}
		delete(curC, c.Name)
		res.compare(path+" / "+c.Name, c.Value, v, tol)
	}
	for _, name := range sortedKeys(curC) {
		res.added(path+" / "+name, curC[name])
	}
}

// WriteTable renders the ranked regression table, worst first:
//
//	rank  kind     baseline        current         rel       metric
func (r *Result) WriteTable(w io.Writer) error {
	if r.OK() {
		return nil
	}
	if _, err := fmt.Fprintf(w, "%4s  %-7s %16s %16s %10s  %s\n",
		"rank", "kind", "baseline", "current", "rel", "metric"); err != nil {
		return err
	}
	for i, v := range r.Violations {
		rel := "-"
		if !math.IsInf(v.Rel, 1) {
			rel = fmt.Sprintf("%.3g", v.Rel)
		}
		if _, err := fmt.Fprintf(w, "%4d  %-7s %16s %16s %10s  %s\n",
			i+1, v.Kind, fmtVal(v.Base), fmtVal(v.Cur), rel, v.Metric); err != nil {
			return err
		}
	}
	return nil
}

// fmtVal renders a value column, blank for the missing side.
func fmtVal(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	s := fmt.Sprintf("%.6g", v)
	if strings.Contains(s, "e") {
		return fmt.Sprintf("%g", v)
	}
	return s
}
