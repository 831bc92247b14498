// Package validate encodes the paper's qualitative claims — who wins, by
// roughly what factor, where knees and crossovers fall — as executable
// predicates over experiment results. These are the reproduction's actual
// targets (absolute numbers are calibration; shapes are science).
//
// The claims drive three consumers: the test suite, the `pentiumbench
// check` command, and the sensitivity analysis, which re-evaluates every
// claim under perturbed calibration constants to show the conclusions do
// not hinge on the fitted values. The package runs nothing itself: each
// consumer runs Exhibits on a core.Runner and scores the results with
// Evaluate.
package validate

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
)

// Claim is one testable statement from the paper.
type Claim struct {
	// ID is a stable identifier ("C01").
	ID string
	// Exhibit is the experiment the claim is checked against.
	Exhibit string
	// Statement quotes or paraphrases the paper.
	Statement string
	// Check returns nil when the result satisfies the claim.
	Check func(r *core.Result) error
}

// Outcome is a claim evaluation.
type Outcome struct {
	Claim Claim
	// Err is nil on pass.
	Err error
}

// Passed reports whether the claim held.
func (o Outcome) Passed() bool { return o.Err == nil }

// seriesMean returns the mean of the series' sample at index idx.
func seriesMean(r *core.Result, label string, idx int) (float64, error) {
	s := r.FindSeries(label)
	if s == nil {
		return 0, fmt.Errorf("series %q missing", label)
	}
	if idx < 0 || idx >= len(s.Samples) {
		return 0, fmt.Errorf("series %q has no point %d", label, idx)
	}
	return s.Samples[idx].Mean(), nil
}

// meanAtX returns the series mean at the sweep value x.
func meanAtX(r *core.Result, label string, x float64) (float64, error) {
	s := r.FindSeries(label)
	if s == nil {
		return 0, fmt.Errorf("series %q missing", label)
	}
	for i, xv := range s.X {
		if xv == x {
			return s.Samples[i].Mean(), nil
		}
	}
	return 0, fmt.Errorf("series %q has no x=%v", label, x)
}

// nearestAtX returns the series mean at the sweep point closest to x.
func nearestAtX(r *core.Result, label string, x float64) (float64, error) {
	s := r.FindSeries(label)
	if s == nil {
		return 0, fmt.Errorf("series %q missing", label)
	}
	best, bestDist := 0.0, math.Inf(1)
	for i, xv := range s.X {
		d := math.Abs(math.Log(xv) - math.Log(x))
		if d < bestDist {
			bestDist = d
			best = s.Samples[i].Mean()
		}
	}
	return best, nil
}

const (
	linux   = "Linux 1.2.8"
	freebsd = "FreeBSD 2.0.5R"
	solaris = "Solaris 2.4"
)

// ordered checks means are strictly increasing across the labels.
func ordered(r *core.Result, idx int, labels ...string) error {
	prev := math.Inf(-1)
	prevLabel := ""
	for _, l := range labels {
		m, err := seriesMean(r, l, idx)
		if err != nil {
			return err
		}
		if m <= prev {
			return fmt.Errorf("%s (%.2f) not above %s (%.2f)", l, m, prevLabel, prev)
		}
		prev, prevLabel = m, l
	}
	return nil
}

// ratioBetween checks a/b lies within [lo, hi].
func ratioBetween(a, b, lo, hi float64, what string) error {
	if b == 0 {
		return fmt.Errorf("%s: zero denominator", what)
	}
	r := a / b
	if r < lo || r > hi {
		return fmt.Errorf("%s: ratio %.2f outside [%.2f, %.2f]", what, r, lo, hi)
	}
	return nil
}

// Claims returns every encoded claim, in paper order.
func Claims() []Claim {
	return []Claim{
		{
			ID: "C01", Exhibit: "T2",
			Statement: "§4: Linux has the fastest basic system call, followed by FreeBSD and then Solaris.",
			Check: func(r *core.Result) error {
				return ordered(r, 0, linux, freebsd, solaris)
			},
		},
		{
			ID: "C02", Exhibit: "F1",
			Statement: "§5: Linux has the best context switch time with fewer than 20 processes.",
			Check: func(r *core.Result) error {
				for _, x := range []float64{2, 8, 16} {
					l, err := meanAtX(r, linux, x)
					if err != nil {
						return err
					}
					f, err := meanAtX(r, freebsd, x)
					if err != nil {
						return err
					}
					if l >= f {
						return fmt.Errorf("at %v procs Linux %.1f ≥ FreeBSD %.1f", x, l, f)
					}
				}
				return nil
			},
		},
		{
			ID: "C03", Exhibit: "F1",
			Statement: "§5: FreeBSD is faster with more processes (crossover near 20).",
			Check: func(r *core.Result) error {
				l, err := meanAtX(r, linux, 40)
				if err != nil {
					return err
				}
				f, err := meanAtX(r, freebsd, 40)
				if err != nil {
					return err
				}
				if l <= f {
					return fmt.Errorf("at 40 procs Linux %.1f ≤ FreeBSD %.1f", l, f)
				}
				return nil
			},
		},
		{
			ID: "C04", Exhibit: "F1",
			Statement: "§5: Linux context switching time increases linearly with the number of active processes.",
			Check: func(r *core.Result) error {
				a, err := meanAtX(r, linux, 64)
				if err != nil {
					return err
				}
				b, err := meanAtX(r, linux, 128)
				if err != nil {
					return err
				}
				c, err := meanAtX(r, linux, 256)
				if err != nil {
					return err
				}
				d1 := (b - a) / 64
				d2 := (c - b) / 128
				return ratioBetween(d2, d1, 0.7, 1.3, "per-task slope stability")
			},
		},
		{
			ID: "C05", Exhibit: "F1",
			Statement: "§5: FreeBSD context switches at almost the same speed no matter how many processes.",
			Check: func(r *core.Result) error {
				lo, hi := math.Inf(1), math.Inf(-1)
				s := r.FindSeries(freebsd)
				if s == nil {
					return fmt.Errorf("missing FreeBSD series")
				}
				for i := range s.X {
					m := s.Samples[i].Mean()
					lo, hi = math.Min(lo, m), math.Max(hi, m)
				}
				return ratioBetween(hi, lo, 1, 1.2, "FreeBSD flatness")
			},
		},
		{
			ID: "C06", Exhibit: "F1",
			Statement: "§5: Solaris context switches more slowly in all cases (within the figure's range; Linux's O(n) line must cross it eventually, around 250 processes in our model).",
			Check: func(r *core.Result) error {
				s := r.FindSeries(solaris)
				if s == nil {
					return fmt.Errorf("missing Solaris series")
				}
				for i, x := range s.X {
					if x > 128 {
						break // beyond the paper's plotted range
					}
					sm := s.Samples[i].Mean()
					for _, other := range []string{linux, freebsd} {
						om, err := meanAtX(r, other, x)
						if err != nil {
							return err
						}
						if sm <= om {
							return fmt.Errorf("at %v procs Solaris %.1f ≤ %s %.1f", x, sm, other, om)
						}
					}
				}
				return nil
			},
		},
		{
			ID: "C07", Exhibit: "F1",
			Statement: "§5: Solaris shows a large increase in context switch time at about 32 processes.",
			Check: func(r *core.Result) error {
				at32, err := meanAtX(r, solaris, 32)
				if err != nil {
					return err
				}
				at48, err := meanAtX(r, solaris, 48)
				if err != nil {
					return err
				}
				if at48 < at32*1.3 {
					return fmt.Errorf("no jump: %.1f @32 vs %.1f @48", at32, at48)
				}
				return nil
			},
		},
		{
			ID: "C08", Exhibit: "F1",
			Statement: "§5: the LIFO chain rises at 32 too, but grows gradually for more than 64 processes.",
			Check: func(r *core.Result) error {
				lifo := r.FindSeries("Solaris-LIFO")
				if lifo == nil {
					return fmt.Errorf("missing Solaris-LIFO series")
				}
				ring40, err := meanAtX(r, solaris, 40)
				if err != nil {
					return err
				}
				lifo40, err := meanAtX(r, "Solaris-LIFO", 40)
				if err != nil {
					return err
				}
				if lifo40 >= ring40 {
					return fmt.Errorf("LIFO @40 (%.1f) not below ring (%.1f)", lifo40, ring40)
				}
				lifo96, err := meanAtX(r, "Solaris-LIFO", 96)
				if err != nil {
					return err
				}
				lifo192, err := meanAtX(r, "Solaris-LIFO", 192)
				if err != nil {
					return err
				}
				if lifo192 < lifo96 {
					return fmt.Errorf("LIFO should keep growing: %.1f @96 vs %.1f @192", lifo96, lifo192)
				}
				return nil
			},
		},
		{
			ID: "C09", Exhibit: "F2",
			Statement: "§6.1: read bandwidth plateaus near 300 (L1), 110 (L2) and 75 MB/s (memory).",
			Check: func(r *core.Result) error {
				hw := "Pentium P54C-100"
				for _, p := range []struct {
					x, want float64
				}{{4 << 10, 300}, {64 << 10, 110}, {2 << 20, 75}} {
					got, err := nearestAtX(r, hw, p.x)
					if err != nil {
						return err
					}
					if err := ratioBetween(got, p.want, 0.85, 1.15, fmt.Sprintf("plateau @%v", p.x)); err != nil {
						return err
					}
				}
				return nil
			},
		},
		{
			ID: "C10", Exhibit: "F3",
			Statement: "§6.2: memset write bandwidth does not reach even 50 MB/s at any size.",
			Check: func(r *core.Result) error {
				s := r.FindSeries("Pentium P54C-100")
				if s == nil {
					return fmt.Errorf("missing hardware series")
				}
				for i, x := range s.X {
					if m := s.Samples[i].Mean(); m >= 50 {
						return fmt.Errorf("memset %.1f MB/s at %v bytes", m, x)
					}
				}
				return nil
			},
		},
		{
			ID: "C11", Exhibit: "F5",
			Statement: "§6.2: software prefetch improves peak write bandwidth to ~310 MB/s.",
			Check: func(r *core.Result) error {
				got, err := nearestAtX(r, "Pentium P54C-100", 4<<10)
				if err != nil {
					return err
				}
				return ratioBetween(got, 310, 0.85, 1.15, "prefetch write peak")
			},
		},
		{
			ID: "C12", Exhibit: "F8",
			Statement: "§6.3: the prefetching copy achieves over 160 MB/s, approaching the read peak in total bandwidth.",
			Check: func(r *core.Result) error {
				got, err := nearestAtX(r, "Pentium P54C-100", 2<<10)
				if err != nil {
					return err
				}
				if got < 150 {
					return fmt.Errorf("prefetch copy peak %.1f < 150", got)
				}
				return nil
			},
		},
		{
			ID: "C13", Exhibit: "F9",
			Statement: "§7.1: all three systems cache files up to ~20 MB of the 32 MB machine.",
			Check: func(r *core.Result) error {
				for _, os := range []string{linux, freebsd, solaris} {
					cached, err := meanAtX(r, os, 16)
					if err != nil {
						return err
					}
					uncached, err := meanAtX(r, os, 32)
					if err != nil {
						return err
					}
					if cached < 3*uncached {
						return fmt.Errorf("%s: no cache knee (%.1f @16MB vs %.1f @32MB)", os, cached, uncached)
					}
				}
				return nil
			},
		},
		{
			ID: "C14", Exhibit: "F9",
			Statement: "§7.1: for cached files FreeBSD reads 5-15% faster than both Linux and Solaris.",
			Check: func(r *core.Result) error {
				f, err := meanAtX(r, freebsd, 4)
				if err != nil {
					return err
				}
				for _, os := range []string{linux, solaris} {
					o, err := meanAtX(r, os, 4)
					if err != nil {
						return err
					}
					if err := ratioBetween(f, o, 1.02, 1.30, "FreeBSD cached-read advantage over "+os); err != nil {
						return err
					}
				}
				return nil
			},
		},
		{
			ID: "C15", Exhibit: "F9",
			Statement: "§7.1: outside the cache Solaris has the best read bandwidth and Linux the worst.",
			Check: func(r *core.Result) error {
				return ordered(r, len(r.Series[0].Samples)-1, linux, freebsd, solaris)
			},
		},
		{
			ID: "C16", Exhibit: "F10",
			Statement: "§7.1: FreeBSD writes files under 8 MB ~50% faster than Solaris.",
			Check: func(r *core.Result) error {
				f, err := meanAtX(r, freebsd, 4)
				if err != nil {
					return err
				}
				s, err := meanAtX(r, solaris, 4)
				if err != nil {
					return err
				}
				return ratioBetween(f, s, 1.2, 1.8, "FreeBSD/Solaris small write")
			},
		},
		{
			ID: "C17", Exhibit: "F10",
			Statement: "§7.1: Linux maintains less than half the write bandwidth of FreeBSD or Solaris at almost all sizes.",
			Check: func(r *core.Result) error {
				for _, x := range []float64{2, 8, 48} {
					l, err := meanAtX(r, linux, x)
					if err != nil {
						return err
					}
					f, err := meanAtX(r, freebsd, x)
					if err != nil {
						return err
					}
					if l > 0.6*f {
						return fmt.Errorf("at %v MB Linux %.2f > 0.6x FreeBSD %.2f", x, l, f)
					}
				}
				return nil
			},
		},
		{
			ID: "C18", Exhibit: "F11",
			Statement: "§7.1: Linux and Solaris perform ~50% more seeks/s than FreeBSD for cached files.",
			Check: func(r *core.Result) error {
				f, err := meanAtX(r, freebsd, 4)
				if err != nil {
					return err
				}
				for _, os := range []string{linux, solaris} {
					o, err := meanAtX(r, os, 4)
					if err != nil {
						return err
					}
					if err := ratioBetween(o, f, 1.2, 2.0, os+" cached seeks over FreeBSD"); err != nil {
						return err
					}
				}
				return nil
			},
		},
		{
			ID: "C19", Exhibit: "F11",
			Statement: "§7.1: all three converge for uncached random seeks (~14 ms to blocks on disk).",
			Check: func(r *core.Result) error {
				last := len(r.Series[0].Samples) - 1
				var vals []float64
				for _, os := range []string{linux, freebsd, solaris} {
					m, err := seriesMean(r, os, last)
					if err != nil {
						return err
					}
					vals = append(vals, m)
				}
				lo, hi := math.Min(vals[0], math.Min(vals[1], vals[2])), math.Max(vals[0], math.Max(vals[1], vals[2]))
				return ratioBetween(hi, lo, 1, 1.3, "uncached seek convergence")
			},
		},
		{
			ID: "C20", Exhibit: "F12",
			Statement: "§7: on small-file metadata workloads Linux is an order of magnitude faster than the other systems.",
			Check: func(r *core.Result) error {
				l, err := meanAtX(r, linux, 1024)
				if err != nil {
					return err
				}
				for _, os := range []string{freebsd, solaris} {
					o, err := meanAtX(r, os, 1024)
					if err != nil {
						return err
					}
					if o < 8*l {
						return fmt.Errorf("%s (%.1f ms) not ~10x Linux (%.1f ms)", os, o, l)
					}
				}
				return nil
			},
		},
		{
			ID: "C21", Exhibit: "F12",
			Statement: "§7.2: the FreeBSD-Solaris crtdel difference stays almost constant at ~32 ms from 1 KB to 1 MB.",
			Check: func(r *core.Result) error {
				gapAt := func(x float64) (float64, error) {
					f, err := meanAtX(r, freebsd, x)
					if err != nil {
						return 0, err
					}
					s, err := meanAtX(r, solaris, x)
					if err != nil {
						return 0, err
					}
					return f - s, nil
				}
				small, err := gapAt(1024)
				if err != nil {
					return err
				}
				big, err := gapAt(1 << 20)
				if err != nil {
					return err
				}
				if small < 22 || small > 45 {
					return fmt.Errorf("small-file gap %.1f ms not ~32", small)
				}
				if math.Abs(big-small) > 15 {
					return fmt.Errorf("gap drifts: %.1f ms at 1KB vs %.1f ms at 1MB", small, big)
				}
				return nil
			},
		},
		{
			ID: "C22", Exhibit: "T3",
			Statement: "§8.1: MAB order is Linux, FreeBSD, Solaris — and the spread is much narrower than the microbenchmarks'.",
			Check: func(r *core.Result) error {
				if err := ordered(r, 0, linux, freebsd, solaris); err != nil {
					return err
				}
				l, _ := seriesMean(r, linux, 0)
				s, _ := seriesMean(r, solaris, 0)
				return ratioBetween(s, l, 1, 1.5, "MAB spread")
			},
		},
		{
			ID: "C23", Exhibit: "T4",
			Statement: "§9.1: pipe bandwidth order is Linux, FreeBSD, Solaris.",
			Check: func(r *core.Result) error {
				return ordered(r, 0, solaris, freebsd, linux)
			},
		},
		{
			ID: "C24", Exhibit: "F13",
			Statement: "§9.2: UDP peaks near 48 (FreeBSD), 32 (Solaris), 16 Mb/s (Linux) — Linux worst despite the best pipes.",
			Check: func(r *core.Result) error {
				last := len(r.Series[0].Samples) - 1
				f, _ := seriesMean(r, freebsd, last)
				s, _ := seriesMean(r, solaris, last)
				l, _ := seriesMean(r, linux, last)
				if !(f > s && s > l) {
					return fmt.Errorf("peak order wrong: F %.1f, S %.1f, L %.1f", f, s, l)
				}
				if err := ratioBetween(f, 48, 0.8, 1.2, "FreeBSD UDP peak"); err != nil {
					return err
				}
				return ratioBetween(l, 16, 0.8, 1.2, "Linux UDP peak")
			},
		},
		{
			ID: "C25", Exhibit: "T5",
			Statement: "§9.3: TCP — FreeBSD leads, Solaris close behind, Linux at ~38% of FreeBSD (one-packet window).",
			Check: func(r *core.Result) error {
				f, _ := seriesMean(r, freebsd, 0)
				s, _ := seriesMean(r, solaris, 0)
				l, _ := seriesMean(r, linux, 0)
				if !(f > s && s > l) {
					return fmt.Errorf("order wrong: %.1f %.1f %.1f", f, s, l)
				}
				return ratioBetween(l, f, 0.28, 0.48, "Linux/FreeBSD TCP")
			},
		},
		{
			ID: "C26", Exhibit: "T6",
			Statement: "§10: with a Linux server, the FreeBSD client is the top performer; Linux and Solaris effectively tie.",
			Check: func(r *core.Result) error {
				f, _ := seriesMean(r, freebsd, 0)
				l, _ := seriesMean(r, linux, 0)
				s, _ := seriesMean(r, solaris, 0)
				if !(f < l && f < s) {
					return fmt.Errorf("FreeBSD (%.1f) not fastest: L %.1f, S %.1f", f, l, s)
				}
				return ratioBetween(l, s, 0.92, 1.08, "Linux/Solaris tie")
			},
		},
		{
			ID: "C27", Exhibit: "T7",
			Statement: "§10: with a SunOS server the order is FreeBSD, Solaris, Linux — Linux 'performs miserably'.",
			Check: func(r *core.Result) error {
				if err := ordered(r, 0, freebsd, solaris, linux); err != nil {
					return err
				}
				f, _ := seriesMean(r, freebsd, 0)
				l, _ := seriesMean(r, linux, 0)
				return ratioBetween(l, f, 1.4, 2.2, "Linux collapse vs FreeBSD")
			},
		},
		{
			ID: "C28", Exhibit: "F2",
			Statement: "§6.4: buffer sizes that leave bytes to the one-byte tail loop dip below their aligned neighbours at the low end.",
			Check: func(r *core.Result) error {
				s := r.FindSeries("Pentium P54C-100")
				if s == nil {
					return fmt.Errorf("missing hardware series")
				}
				// Find a ragged size (2^k-1) and its aligned neighbour.
				dips := 0
				for i, x := range s.X {
					size := int(x)
					if size > 4096 || size < 100 || (size+1)&size != 0 {
						continue // want small 2^k-1 sizes
					}
					aligned, err := meanAtX(r, s.Label, float64(size+1))
					if err != nil {
						continue
					}
					if s.Samples[i].Mean() < aligned*0.92 {
						dips++
					}
				}
				if dips == 0 {
					return fmt.Errorf("no tail-loop dips found at ragged sizes")
				}
				return nil
			},
		},
		{
			ID: "C29", Exhibit: "T4",
			Statement: "§9.1: Linux and FreeBSD pipes could theoretically keep up with a 100 Mb/s Ethernet; Solaris could not.",
			Check: func(r *core.Result) error {
				l, _ := seriesMean(r, linux, 0)
				f, _ := seriesMean(r, freebsd, 0)
				s, _ := seriesMean(r, solaris, 0)
				if l < 100 {
					return fmt.Errorf("Linux pipes %.1f Mb/s below 100", l)
				}
				// "Could theoretically keep up" is generous even in the
				// paper (98.03 Mb/s); the claim asserts FreeBSD is in the
				// 100 Mb/s class, not strictly above the line.
				if f < 80 {
					return fmt.Errorf("FreeBSD pipes %.1f Mb/s out of the 100 Mb/s class", f)
				}
				if s >= 100 {
					return fmt.Errorf("Solaris pipes %.1f Mb/s should be below 100", s)
				}
				return nil
			},
		},
		{
			ID: "C30", Exhibit: "F13",
			Statement: "§9.2: FreeBSD's and Solaris' UDP runs at ~50% of their pipe bandwidth; Linux's at only ~14% of its own.",
			Check: func(r *core.Result) error {
				// Paper Table 4 pipe bandwidths as the reference.
				pipe := map[string]float64{linux: 119.36, freebsd: 98.03, solaris: 65.38}
				last := len(r.Series[0].Samples) - 1
				for _, os := range []string{freebsd, solaris} {
					m, err := seriesMean(r, os, last)
					if err != nil {
						return err
					}
					if err := ratioBetween(m, pipe[os], 0.40, 0.60, os+" UDP/pipe"); err != nil {
						return err
					}
				}
				m, err := seriesMean(r, linux, last)
				if err != nil {
					return err
				}
				return ratioBetween(m, pipe[linux], 0.09, 0.20, "Linux UDP/pipe")
			},
		},
	}
}

// Exhibits returns the experiments the claims are checked against, in
// presentation order: running them gives Evaluate every result it needs.
func Exhibits() []*core.Experiment {
	claims := Claims()
	return slices.DeleteFunc(core.All(), func(e *core.Experiment) bool {
		return !slices.ContainsFunc(claims, func(c Claim) bool { return c.Exhibit == e.ID })
	})
}

// Evaluate scores every claim, in Claims() order, against its exhibit's
// result among results.
func Evaluate(results []*core.Result) []Outcome {
	var out []Outcome
	for _, c := range Claims() {
		o := Outcome{Claim: c, Err: fmt.Errorf("no result for exhibit %q", c.Exhibit)}
		for _, r := range results {
			if r.ID == c.Exhibit {
				o.Err = c.Check(r)
				break
			}
		}
		out = append(out, o)
	}
	return out
}
