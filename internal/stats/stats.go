// Package stats implements the summary statistics the paper reports for
// every benchmark: the mean over twenty runs, the standard deviation
// expressed as a percentage of the mean, and the "Norm." column that ranks
// systems proportionally against the best performer.
package stats

import (
	"fmt"
	"math"
)

// Sample accumulates observations from repeated benchmark runs.
type Sample struct {
	values []float64
}

// Add appends one observation.
func (s *Sample) Add(v float64) { s.values = append(s.values, v) }

// N returns the number of observations.
func (s *Sample) N() int { return len(s.values) }

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

// StdDev returns the sample standard deviation (n-1 denominator), or 0 for
// samples of fewer than two observations.
func (s *Sample) StdDev() float64 {
	n := len(s.values)
	if n < 2 {
		return 0
	}
	mean := s.Mean()
	sum := 0.0
	for _, v := range s.values {
		d := v - mean
		sum += d * d
	}
	return math.Sqrt(sum / float64(n-1))
}

// RelStdDev returns the standard deviation as a fraction of the mean — the
// quantity the paper's "Std Dev" columns report (as a percentage). It
// returns 0 if the mean is 0.
func (s *Sample) RelStdDev() float64 {
	m := s.Mean()
	if m == 0 {
		return 0
	}
	return s.StdDev() / math.Abs(m)
}

// String summarises the sample for debugging.
func (s *Sample) String() string {
	return fmt.Sprintf("n=%d mean=%.4g σ=%.2f%%", s.N(), s.Mean(), 100*s.RelStdDev())
}

// Direction states whether smaller or larger values are better, which
// controls how the Norm. column is computed.
type Direction int

const (
	// LowerIsBetter applies to latencies and elapsed times (Tables 2, 3, 6,
	// 7 and the create/delete figure).
	LowerIsBetter Direction = iota
	// HigherIsBetter applies to bandwidths and rates (Tables 4, 5 and the
	// bandwidth figures).
	HigherIsBetter
)

// Normalize computes the paper's "Norm." column: each value expressed as a
// proportional speed relative to the best value, so the best system scores
// 1.00 and slower systems score below 1. For latencies the ratio is
// best/value; for bandwidths it is value/best. Non-positive values
// normalise to 0.
func Normalize(values []float64, dir Direction) []float64 {
	out := make([]float64, len(values))
	best, ok := bestOf(values, dir)
	if !ok {
		return out
	}
	for i, v := range values {
		if v <= 0 {
			continue
		}
		switch dir {
		case LowerIsBetter:
			out[i] = best / v
		case HigherIsBetter:
			out[i] = v / best
		}
	}
	return out
}

// bestOf returns the best positive value under dir, and whether one exists.
func bestOf(values []float64, dir Direction) (float64, bool) {
	best := 0.0
	found := false
	for _, v := range values {
		if v <= 0 {
			continue
		}
		if !found {
			best, found = v, true
			continue
		}
		if dir == LowerIsBetter && v < best {
			best = v
		}
		if dir == HigherIsBetter && v > best {
			best = v
		}
	}
	return best, found
}

// Ratio returns a/b, or 0 when b is 0. It is a convenience for
// paper-vs-measured comparisons in EXPERIMENTS.md generation.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
