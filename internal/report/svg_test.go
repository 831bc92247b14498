package report

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/xml"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

// xmlWellFormed parses the document with encoding/xml to catch attribute
// and nesting errors.
func xmlWellFormed(t *testing.T, doc string) {
	t.Helper()
	dec := xml.NewDecoder(strings.NewReader(doc))
	for {
		_, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				return
			}
			t.Fatalf("SVG not well-formed XML: %v\n%s", err, doc)
		}
	}
}

func TestSVGFigure(t *testing.T) {
	var b strings.Builder
	SVG(&b, figureResult())
	doc := b.String()
	xmlWellFormed(t, doc)
	for _, want := range []string{
		"<svg", "polyline", "circle", "F13 — UDP Bandwidth",
		"FreeBSD 2.0.5R", "Linux 1.2.8", "Mb/s",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	// Two series → two polylines.
	if got := strings.Count(doc, "<polyline"); got != 2 {
		t.Errorf("polylines = %d, want 2", got)
	}
}

func TestSVGTableBars(t *testing.T) {
	var b strings.Builder
	SVG(&b, tableResult())
	doc := b.String()
	xmlWellFormed(t, doc)
	// Two rows → at least two bars (rect beyond the background).
	if got := strings.Count(doc, "<rect"); got < 3 {
		t.Errorf("rects = %d, want background + 2 bars", got)
	}
	if !strings.Contains(doc, "Linux 1.2.8") {
		t.Error("bar labels missing")
	}
}

func TestSVGEmptyResult(t *testing.T) {
	var b strings.Builder
	SVG(&b, &core.Result{ID: "X", Title: "empty", Kind: core.Figure})
	xmlWellFormed(t, b.String())
}

func TestSVGEscapesLabels(t *testing.T) {
	r := figureResult()
	r.Title = `Angle <brackets> & "quotes"`
	var b strings.Builder
	SVG(&b, r)
	xmlWellFormed(t, b.String())
	if strings.Contains(b.String(), "<brackets>") {
		t.Error("title not escaped")
	}
}

// TestSVGUnplottableMeans renders a figure and a table whose means
// include −5, NaN, +Inf and −Inf: those points are left out of the
// domain, the lines, the markers and the bars and counted under the
// chart, no coordinate is NaN or infinite, and no point is drawn below
// the x axis. All-finite results keep their bytes.
func TestSVGUnplottableMeans(t *testing.T) {
	bad := []float64{-5, math.NaN(), math.Inf(1), math.Inf(-1)}
	fig, tab := figureResult(), tableResult()
	for i, m := range bad {
		fig.Series[0].X = append(fig.Series[0].X, 2048)
		fig.Series[0].Samples = append(fig.Series[0].Samples, sample(m))
		tab.Series = append(tab.Series, core.Series{Label: fmt.Sprint("row ", i), Samples: []*stats.Sample{sample(m)}})
	}
	const axisY = 420 // top + plot height: the x axis of both charts
	attr := regexp.MustCompile(` (cx|cy|x|y|x1|x2|y1|y2|width)="([^"]*)"`)
	points := regexp.MustCompile(`points="([^"]*)"`)
	for name, r := range map[string]*core.Result{"figure": fig, "table": tab} {
		doc := svgOf(r)
		xmlWellFormed(t, doc)
		if !strings.Contains(doc, "(4 points not plotted: mean negative or not finite)") {
			t.Errorf("%s: no note counting the 4 left-out points:\n%s", name, doc)
		}
		for _, m := range attr.FindAllStringSubmatch(doc, -1) {
			if v, err := strconv.ParseFloat(m[2], 64); err != nil || math.IsNaN(v) || math.IsInf(v, 0) || m[1] == "cy" && v > axisY {
				t.Errorf("%s: %s off the chart", name, m[0])
			}
		}
		for _, m := range points.FindAllStringSubmatch(doc, -1) {
			for _, pt := range strings.Fields(m[1]) {
				y, err := strconv.ParseFloat(pt[strings.IndexByte(pt, ',')+1:], 64)
				if err != nil || math.IsNaN(y) || math.IsInf(y, 0) || y > axisY {
					t.Errorf("%s: polyline point %s off the chart", name, pt)
				}
			}
		}
	}
	if got := strings.Count(svgOf(fig), "<circle"); got != 4 {
		t.Errorf("figure draws %d markers, want the 4 finite points", got)
	}
	if got := strings.Count(svgOf(tab), "<rect"); got != 3 {
		t.Errorf("table draws %d rects, want the background and the 2 finite bars", got)
	}
	// Digests of the all-finite fixtures before unplottable means were
	// handled: the change must not move a byte of them.
	for r, want := range map[*core.Result]string{
		figureResult(): "2d31874c28020c2292013ba98e5a7d6ece3501e3019e14f0ee8780f78b6c861a",
		tableResult():  "0674f15d1f8fe6a5c77200ceb0d2cc59cdccd054ad9a67537f69d7a1bf965209",
	} {
		if sum := sha256.Sum256([]byte(svgOf(r))); hex.EncodeToString(sum[:]) != want {
			t.Errorf("all-finite %s SVG changed: sha256 %x", r.ID, sum)
		}
	}
}

func svgOf(r *core.Result) string {
	var b strings.Builder
	SVG(&b, r)
	return b.String()
}
