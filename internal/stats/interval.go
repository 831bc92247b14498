package stats

import "math"

// Confidence intervals for benchmark samples. The paper reports only
// mean and standard deviation; a modern reproduction should also state
// how tightly the twenty-run protocol pins the mean, so the report adds
// a 95% Student-t interval.

// tTable95 holds two-sided 95% critical values of Student's t for ν
// degrees of freedom (1-based index; ν ≥ 30 uses the normal limit).
var tTable95 = []float64{
	0, // ν=0 unused
	12.706, 4.303, 3.182, 2.776, 2.571,
	2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131,
	2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060,
	2.056, 2.052, 2.048, 2.045, 2.042,
}

// tCritical95 returns the two-sided 95% t value for ν degrees of freedom.
func tCritical95(nu int) float64 {
	if nu <= 0 {
		return math.NaN()
	}
	if nu < len(tTable95) {
		return tTable95[nu]
	}
	return 1.960 // normal limit
}

// ConfidenceInterval95 returns the half-width of the 95% confidence
// interval of the sample mean (mean ± half). It returns 0 for samples of
// fewer than two observations.
func (s *Sample) ConfidenceInterval95() float64 {
	n := s.N()
	if n < 2 {
		return 0
	}
	return tCritical95(n-1) * s.StdDev() / math.Sqrt(float64(n))
}
