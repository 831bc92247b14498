package notes

import "testing"

func TestVerdictStrings(t *testing.T) {
	for v, want := range map[Verdict]string{Good: "good", Mixed: "mixed", Poor: "poor", Verdict(9): "?"} {
		if got := v.String(); got != want {
			t.Errorf("Verdict(%d) = %q, want %q", int(v), got, want)
		}
	}
}

func TestItemsComplete(t *testing.T) {
	for _, items := range [][]Item{Installation(), Porting()} {
		if len(items) == 0 {
			t.Fatal("empty section")
		}
		for _, it := range items {
			if it.Aspect == "" || it.Detail == "" {
				t.Errorf("item incomplete: %+v", it)
			}
		}
	}
}

func TestPaperEaseOrdering(t *testing.T) {
	// §11: "Linux being the easiest and Solaris being the most
	// difficult" — count of good verdicts must reflect that, in both
	// sections combined.
	score := [3]int{}
	for _, items := range [][]Item{Installation(), Porting()} {
		for _, it := range items {
			for i, v := range it.PerOS {
				if v == Good {
					score[i] += 2
				}
				if v == Mixed {
					score[i]++
				}
			}
		}
	}
	if !(score[0] > score[1] && score[1] > score[2]) {
		t.Errorf("ease order (Linux > FreeBSD > Solaris) violated: %v", score)
	}
}

func TestConclusionCoversAllSystems(t *testing.T) {
	c := Conclusion()
	for _, k := range []string{"Linux 1.2.8", "FreeBSD 2.0.5R", "Solaris 2.4", "overall"} {
		if c[k] == "" {
			t.Errorf("missing conclusion for %s", k)
		}
	}
}
