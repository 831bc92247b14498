package repro

import (
	"os"
	"strings"
	"testing"

	"repro/internal/cli"
)

// experimentsAppendixMarker separates the generated body of
// EXPERIMENTS.md from the hand-maintained "Harness performance" appendix.
// The appendix records wall-clock measurements, which are machine-
// dependent, so the golden comparison stops at this line.
const experimentsAppendixMarker = "<!-- harness appendix:"

// TestExperimentsGolden guards the committed EXPERIMENTS.md against
// calibration drift: any change to a model or constant that shifts a
// reported number must be accompanied by regenerating the file body
// (`go run ./cmd/pentiumbench experiments`, spliced in above the harness
// appendix marker), which makes every such change visible in review.
func TestExperimentsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden regeneration runs every exhibit")
	}
	wantFile, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	want := wantFile
	if i := strings.Index(string(wantFile), experimentsAppendixMarker); i >= 0 {
		want = wantFile[:i]
	}
	var b, errb strings.Builder
	if code := cli.NewApp(&b, &errb).Execute([]string{"experiments"}); code != 0 {
		t.Fatalf("experiments exited %d: %s", code, errb.String())
	}
	got := b.String()
	if got != string(want) {
		// Find the first differing line for a useful message.
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("EXPERIMENTS.md is stale at line %d:\n  committed: %s\n  computed:  %s\n"+
					"regenerate the body with `go run ./cmd/pentiumbench experiments` and splice it in above the harness appendix marker",
					i+1, wl[i], gl[i])
			}
		}
		t.Fatalf("EXPERIMENTS.md length differs: committed %d lines, computed %d; regenerate it",
			len(wl), len(gl))
	}
}
