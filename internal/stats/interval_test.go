package stats

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func TestTCritical(t *testing.T) {
	if got := tCritical95(1); got != 12.706 {
		t.Errorf("t(1) = %v", got)
	}
	if got := tCritical95(19); got != 2.093 {
		t.Errorf("t(19) = %v (the twenty-run protocol's value)", got)
	}
	if got := tCritical95(500); got != 1.960 {
		t.Errorf("t(500) = %v, want normal limit", got)
	}
	if !math.IsNaN(tCritical95(0)) {
		t.Error("t(0) should be NaN")
	}
}

func TestConfidenceIntervalKnownValues(t *testing.T) {
	// n=4, values 1,2,3,4: mean 2.5, s = sqrt(5/3) ≈ 1.2910,
	// CI half-width = 3.182 * 1.2910 / 2 ≈ 2.054.
	var s Sample
	for _, v := range []float64{1, 2, 3, 4} {
		s.Add(v)
	}
	got := s.ConfidenceInterval95()
	want := 3.182 * math.Sqrt(5.0/3.0) / 2
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("CI = %v, want %v", got, want)
	}
	if !meanWithin95(&s, 2.6) {
		t.Error("2.6 should be inside the interval")
	}
	if meanWithin95(&s, 5.0) {
		t.Error("5.0 should be outside the interval")
	}
}

func TestConfidenceIntervalDegenerate(t *testing.T) {
	var s Sample
	if s.ConfidenceInterval95() != 0 {
		t.Error("empty sample should have zero CI")
	}
	s.Add(5)
	if s.ConfidenceInterval95() != 0 {
		t.Error("single observation should have zero CI")
	}
	if !meanWithin95(&s, 5) {
		t.Error("the mean itself is always within")
	}
}

func TestConfidenceIntervalShrinksWithN(t *testing.T) {
	rng := sim.NewRNG(1)
	small, large := &Sample{}, &Sample{}
	for i := 0; i < 10; i++ {
		small.Add(100 * rng.Noise(0.05))
	}
	for i := 0; i < 1000; i++ {
		large.Add(100 * rng.Noise(0.05))
	}
	if large.ConfidenceInterval95() >= small.ConfidenceInterval95() {
		t.Errorf("CI should shrink with n: %v (n=10) vs %v (n=1000)",
			small.ConfidenceInterval95(), large.ConfidenceInterval95())
	}
}

func TestConfidenceCoverage(t *testing.T) {
	// ~95% of 20-run samples should cover the true mean.
	rng := sim.NewRNG(42)
	const trials = 2000
	covered := 0
	for i := 0; i < trials; i++ {
		var s Sample
		for j := 0; j < 20; j++ {
			s.Add(50 * rng.Noise(0.10))
		}
		if meanWithin95(&s, 50) {
			covered++
		}
	}
	frac := float64(covered) / trials
	if frac < 0.92 || frac > 0.98 {
		t.Errorf("95%% CI covered the truth %.1f%% of the time", 100*frac)
	}
}

// meanWithin95 reports whether v lies inside s's 95% confidence
// interval around the mean.
func meanWithin95(s *Sample, v float64) bool {
	return math.Abs(s.Mean()-v) <= s.ConfidenceInterval95()
}
