package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestEmptySample(t *testing.T) {
	var s Sample
	if s.N() != 0 || s.Mean() != 0 || s.StdDev() != 0 || s.RelStdDev() != 0 {
		t.Fatal("empty sample should report zeros everywhere")
	}
}

func TestSingleObservation(t *testing.T) {
	var s Sample
	s.Add(7)
	if s.Mean() != 7 || s.StdDev() != 0 {
		t.Fatalf("single-observation stats wrong: %v", s.String())
	}
}

func TestMeanAndStdDev(t *testing.T) {
	var s Sample
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if !approx(s.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", s.Mean())
	}
	// Sample std dev with n-1 = sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if !approx(s.StdDev(), want, 1e-12) {
		t.Errorf("StdDev = %v, want %v", s.StdDev(), want)
	}
	if !approx(s.RelStdDev(), want/5, 1e-12) {
		t.Errorf("RelStdDev = %v, want %v", s.RelStdDev(), want/5)
	}
}

func TestNormalizeLowerIsBetter(t *testing.T) {
	// Paper Table 2: Linux 2.31, FreeBSD 2.62, Solaris 3.52 →
	// Norm 1.00, 0.88, 0.66.
	norm := Normalize([]float64{2.31, 2.62, 3.52}, LowerIsBetter)
	if !approx(norm[0], 1.00, 0.005) || !approx(norm[1], 0.88, 0.005) || !approx(norm[2], 0.66, 0.005) {
		t.Fatalf("Norm = %v, want [1.00 0.88 0.66]", norm)
	}
}

func TestNormalizeHigherIsBetter(t *testing.T) {
	// Paper Table 4: 119.36, 98.03, 65.38 → 1.00, 0.82, 0.55.
	norm := Normalize([]float64{119.36, 98.03, 65.38}, HigherIsBetter)
	if !approx(norm[0], 1.00, 0.005) || !approx(norm[1], 0.82, 0.005) || !approx(norm[2], 0.55, 0.005) {
		t.Fatalf("Norm = %v, want [1.00 0.82 0.55]", norm)
	}
}

func TestNormalizeHandlesZeros(t *testing.T) {
	norm := Normalize([]float64{0, 2, 4}, LowerIsBetter)
	if norm[0] != 0 || norm[1] != 1 || norm[2] != 0.5 {
		t.Fatalf("Norm with zero = %v", norm)
	}
	norm = Normalize([]float64{0, 0}, HigherIsBetter)
	if norm[0] != 0 || norm[1] != 0 {
		t.Fatalf("all-zero Norm = %v", norm)
	}
	if got := Normalize(nil, LowerIsBetter); len(got) != 0 {
		t.Fatalf("nil Norm = %v", got)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(6, 3) != 2 {
		t.Fatal("Ratio(6,3) != 2")
	}
	if Ratio(1, 0) != 0 {
		t.Fatal("Ratio(_, 0) should be 0")
	}
}

// Property: the best entry always normalises to exactly 1, all others to
// (0, 1].
func TestNormalizeProperty(t *testing.T) {
	f := func(raw []uint32, higher bool) bool {
		values := make([]float64, len(raw))
		anyPositive := false
		for i, r := range raw {
			values[i] = float64(r%10000) / 10
			if values[i] > 0 {
				anyPositive = true
			}
		}
		dir := LowerIsBetter
		if higher {
			dir = HigherIsBetter
		}
		norm := Normalize(values, dir)
		if !anyPositive {
			for _, n := range norm {
				if n != 0 {
					return false
				}
			}
			return true
		}
		sawOne := false
		for i, n := range norm {
			if values[i] <= 0 {
				if n != 0 {
					return false
				}
				continue
			}
			if n <= 0 || n > 1+1e-12 {
				return false
			}
			if approx(n, 1, 1e-12) {
				sawOne = true
			}
		}
		return sawOne
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: mean is bounded by min and max; stddev is non-negative.
func TestMomentsProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		var s Sample
		for _, r := range raw {
			s.Add(float64(r))
		}
		m := s.Mean()
		if m < slices.Min(s.values)-1e-9 || m > slices.Max(s.values)+1e-9 {
			return false
		}
		return s.StdDev() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
