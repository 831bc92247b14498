package report

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

func sample(vals ...float64) *stats.Sample {
	s := &stats.Sample{}
	for _, v := range vals {
		s.Add(v)
	}
	return s
}

func tableResult() *core.Result {
	return &core.Result{
		ID: "T2", Title: "System Call (getpid)", Kind: core.Table,
		YUnit: "µs", Direction: stats.LowerIsBetter,
		Series: []core.Series{
			{Label: "Linux 1.2.8", Samples: []*stats.Sample{sample(2.30, 2.32)}},
			{Label: "FreeBSD 2.0.5R", Samples: []*stats.Sample{sample(2.61, 2.63)}},
		},
		Expected: []core.Expectation{
			{Label: "Linux 1.2.8", Mean: 2.31, StdDevPct: 0.10},
		},
		Notes: []string{"Linux leads."},
	}
}

func figureResult() *core.Result {
	return &core.Result{
		ID: "F13", Title: "UDP Bandwidth", Kind: core.Figure,
		YUnit: "Mb/s", XLabel: "packet bytes", LogX: true,
		Direction: stats.HigherIsBetter,
		Series: []core.Series{
			{
				Label:   "FreeBSD 2.0.5R",
				X:       []float64{1024, 8192},
				Samples: []*stats.Sample{sample(20), sample(48)},
			},
			{
				Label:   "Linux 1.2.8",
				X:       []float64{1024, 8192},
				Samples: []*stats.Sample{sample(8), sample(16)},
			},
		},
	}
}

func TestTableRendering(t *testing.T) {
	var b strings.Builder
	Table(&b, tableResult())
	out := b.String()
	for _, want := range []string{
		"T2 — System Call", "Linux 1.2.8", "FreeBSD 2.0.5R",
		"Mean (µs)", "Std Dev", "Norm.", "Paper (µs)",
		"1.00", // Linux normalises to 1.00
		"note: Linux leads.",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	// The series without an expectation renders a dash.
	if !strings.Contains(out, "-") {
		t.Errorf("missing dash for absent expectation:\n%s", out)
	}
}

func TestFigureRendering(t *testing.T) {
	var b strings.Builder
	Figure(&b, figureResult())
	out := b.String()
	for _, want := range []string{
		"F13 — UDP Bandwidth",
		"packet bytes (log scale)",
		"* = FreeBSD 2.0.5R",
		"o = Linux 1.2.8",
		"first", "peak", "last",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("figure output missing %q:\n%s", want, out)
		}
	}
	// Canvas rows are present.
	if strings.Count(out, "\n  |") < 10 {
		t.Errorf("figure canvas too short:\n%s", out)
	}
}

// A mean the canvas has no row for (negative, or not finite) is left
// off the chart and counted under it, and the finite points still draw.
func TestFigureUnplottableMeans(t *testing.T) {
	for _, tc := range []struct {
		name     string
		set      func(r *core.Result)
		n, stars int // unplotted points; FreeBSD points drawn
		os       int // Linux points drawn
	}{
		{"negative", func(r *core.Result) { r.Series[0].Samples[0] = sample(-5) }, 1, 1, 2},
		{"NaN", func(r *core.Result) { r.Series[0].Samples[0] = sample(math.NaN()) }, 1, 1, 2},
		{"+Inf", func(r *core.Result) { r.Series[1].Samples[1] = sample(math.Inf(1)) }, 1, 2, 1},
		{"-Inf", func(r *core.Result) { r.Series[1].Samples[0] = sample(math.Inf(-1)) }, 1, 2, 1},
		{"one per series", func(r *core.Result) {
			r.Series[0].Samples[0] = sample(-5)
			r.Series[1].Samples[1] = sample(math.Inf(1))
		}, 2, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := figureResult()
			tc.set(r)
			var b strings.Builder
			Figure(&b, r)
			out := b.String()
			if note := fmt.Sprintf("(%d points not plotted: mean negative or not finite)", tc.n); !strings.Contains(out, note) {
				t.Errorf("figure does not note the unplotted points as %q:\n%s", note, out)
			}
			var canvas strings.Builder
			for _, line := range strings.Split(out, "\n") {
				if strings.HasPrefix(line, "  |") {
					canvas.WriteString(line)
				}
			}
			if c := canvas.String(); strings.Count(c, "*") != tc.stars || strings.Count(c, "o") != tc.os {
				t.Errorf("want %d '*' and %d 'o' on the canvas:\n%s", tc.stars, tc.os, out)
			}
		})
	}
}

func TestRenderDispatch(t *testing.T) {
	var b strings.Builder
	Render(&b, tableResult())
	if !strings.Contains(b.String(), "Norm.") {
		t.Error("Render did not dispatch to Table")
	}
	b.Reset()
	Render(&b, figureResult())
	if !strings.Contains(b.String(), "log scale") {
		t.Error("Render did not dispatch to Figure")
	}
}

func TestCSVOutput(t *testing.T) {
	var b strings.Builder
	CSV(&b, figureResult())
	out := b.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Header + 2 series x 2 points.
	if len(lines) != 5 {
		t.Fatalf("CSV has %d lines, want 5:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "experiment,series,x,mean_") {
		t.Errorf("bad CSV header: %s", lines[0])
	}
	if !strings.Contains(out, "F13,FreeBSD 2.0.5R,1024,20,") {
		t.Errorf("CSV missing data row:\n%s", out)
	}
}

func TestCSVTableForm(t *testing.T) {
	var b strings.Builder
	CSV(&b, tableResult())
	out := b.String()
	// Table rows have an empty x column.
	if !strings.Contains(out, "T2,Linux 1.2.8,,") {
		t.Errorf("table CSV should leave x empty:\n%s", out)
	}
}

func TestCSVSanitizesCommas(t *testing.T) {
	r := tableResult()
	r.Series[0].Label = "Linux, the fast one"
	var b strings.Builder
	CSV(&b, r)
	if strings.Contains(b.String(), "Linux, the") {
		t.Error("CSV did not sanitise commas in labels")
	}
}

func TestEmptyFigure(t *testing.T) {
	var b strings.Builder
	Figure(&b, &core.Result{ID: "X", Title: "empty", Kind: core.Figure})
	if !strings.Contains(b.String(), "(no points)") {
		t.Error("empty figure should say so")
	}
}

func TestHTMLReport(t *testing.T) {
	var b strings.Builder
	HTML(&b, []*core.Result{tableResult(), figureResult()})
	doc := b.String()
	for _, want := range []string{
		"<!DOCTYPE html>", "</html>", "<table>", "<svg",
		"T2 — System Call", "F13 — UDP Bandwidth",
		"±95%", "Paper (µs)",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("HTML missing %q", want)
		}
	}
}

func TestHTMLEscapes(t *testing.T) {
	r := tableResult()
	r.Notes = []string{`tags <b> & "quotes"`}
	var b strings.Builder
	HTML(&b, []*core.Result{r})
	if strings.Contains(b.String(), "<b>") {
		t.Error("notes not escaped")
	}
}
