package report

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/obs"
)

// TimelineRun is one sampled run's contribution to a timeline figure:
// the run label (an OS personality) and its flattened time series.
// Overload optionally marks windows where the run was saturated (queue
// at capacity — drops — or requests shed); marked windows are shaded
// behind every strip.
type TimelineRun struct {
	Label    string
	WidthNs  int64
	Series   []obs.FlatSeries
	Overload []bool
}

// Timeline writes a small-multiple SVG of virtual-time series: one strip
// per metric name (the union across runs), one polyline per run within
// each strip, all sharing the x axis (window index → virtual time).
// Output depends only on the inputs — same series, same bytes.
func Timeline(w io.Writer, id, title string, runs []TimelineRun) {
	const (
		width       = 860
		left, right = 220, 20
		top         = 56
		stripH      = 56
		stripGap    = 14
		plotW       = width - left - right
		fontSize    = 11
		titleSize   = 15
	)

	// The strip list is the name-sorted union of every run's series.
	nameSet := map[string]bool{}
	for _, r := range runs {
		for _, s := range r.Series {
			nameSet[s.Name] = true
		}
	}
	names := make([]string, 0, len(nameSet))
	for n := range nameSet {
		names = append(names, n)
	}
	sort.Strings(names)

	windows := 0
	for _, r := range runs {
		for _, s := range r.Series {
			if len(s.Values) > windows {
				windows = len(s.Values)
			}
		}
	}

	height := top + len(names)*(stripH+stripGap) + 30
	fmt.Fprintf(w, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		width, height, width, height)
	fmt.Fprintf(w, `<rect width="%d" height="%d" fill="white"/>`+"\n", width, height)
	fmt.Fprintf(w, `<text x="%d" y="%d" font-family="sans-serif" font-size="%d" font-weight="bold">%s — %s</text>`+"\n",
		16, 24, titleSize, xmlEscape(id), xmlEscape(title))

	// Legend: one swatch per run, on the title row.
	x := 16
	y := 42
	for ri, r := range runs {
		color := svgColors[ri%len(svgColors)]
		fmt.Fprintf(w, `<rect x="%d" y="%d" width="10" height="10" fill="%s"/>`+"\n", x, y-9, color)
		fmt.Fprintf(w, `<text x="%d" y="%d" font-family="sans-serif" font-size="%d">%s</text>`+"\n",
			x+14, y, fontSize, xmlEscape(r.Label))
		x += 14 + 7*len(r.Label) + 18
	}

	if len(names) == 0 || windows == 0 {
		fmt.Fprintln(w, `</svg>`)
		return
	}

	// Overload columns: the union across runs, merged into contiguous
	// spans so the shading stays one rect per episode per strip.
	overload := make([]bool, windows)
	for _, r := range runs {
		for i, v := range r.Overload {
			if i < windows && v {
				overload[i] = true
			}
		}
	}
	type span struct{ from, to int } // [from, to)
	var spans []span
	for i := 0; i < windows; i++ {
		if !overload[i] {
			continue
		}
		j := i
		for j < windows && overload[j] {
			j++
		}
		spans = append(spans, span{i, j})
		i = j
	}
	// colX maps a window index onto the shared x axis (same mapping the
	// polylines use); column edges sit half a window either side.
	colX := func(i float64) float64 {
		px := float64(left)
		if windows > 1 {
			px += i / float64(windows-1) * float64(plotW)
		}
		if px < float64(left) {
			px = float64(left)
		}
		if px > float64(left+plotW) {
			px = float64(left + plotW)
		}
		return px
	}

	for si, name := range names {
		sy := top + si*(stripH+stripGap)
		// Strip max across runs scales the y axis.
		var max int64 = 1
		for _, r := range runs {
			for _, s := range r.Series {
				if s.Name != name {
					continue
				}
				for _, v := range s.Values {
					if v > max {
						max = v
					}
				}
			}
		}
		fmt.Fprintf(w, `<rect x="%d" y="%d" width="%d" height="%d" fill="#f7f7f7"/>`+"\n",
			left, sy, plotW, stripH)
		for _, sp := range spans {
			x0 := colX(float64(sp.from) - 0.5)
			x1 := colX(float64(sp.to-1) + 0.5)
			fmt.Fprintf(w, `<rect x="%s" y="%d" width="%s" height="%d" fill="#d62728" fill-opacity="0.13"/>`+"\n",
				trimNum(x0), sy, trimNum(x1-x0), stripH)
		}
		fmt.Fprintf(w, `<text x="%d" y="%d" font-family="sans-serif" font-size="%d" text-anchor="end">%s</text>`+"\n",
			left-8, sy+stripH/2+4, fontSize, xmlEscape(name))
		fmt.Fprintf(w, `<text x="%d" y="%d" font-family="sans-serif" font-size="%d" fill="#888" text-anchor="end">max %d</text>`+"\n",
			width-right, sy-2, fontSize-2, max)
		for ri, r := range runs {
			for _, s := range r.Series {
				if s.Name != name || len(s.Values) == 0 {
					continue
				}
				pts := make([]byte, 0, len(s.Values)*12)
				for i, v := range s.Values {
					px := float64(left)
					if windows > 1 {
						px += float64(i) / float64(windows-1) * float64(plotW)
					}
					py := float64(sy+stripH) - float64(v)/float64(max)*float64(stripH-4)
					pts = append(pts, fmt.Sprintf("%s%s,%s", sep(i), trimNum(px), trimNum(py))...)
				}
				fmt.Fprintf(w, `<polyline fill="none" stroke="%s" stroke-width="1.2" points="%s"/>`+"\n",
					svgColors[ri%len(svgColors)], pts)
			}
		}
	}

	// Shared x axis, in virtual time off the first run's window width:
	// five ticks across the span, the last carrying the "virtual" unit.
	axisY := top + len(names)*(stripH+stripGap) + 4
	widthNs := int64(0)
	if len(runs) > 0 {
		widthNs = runs[0].WidthNs
	}
	total := int64(windows) * widthNs
	fmt.Fprintf(w, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#999" stroke-width="1"/>`+"\n",
		left, axisY, left+plotW, axisY)
	const ticks = 4
	for t := 0; t <= ticks; t++ {
		px := left + t*plotW/ticks
		fmt.Fprintf(w, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#999" stroke-width="1"/>`+"\n",
			px, axisY, px, axisY+4)
		label := "0"
		anchor := "middle"
		switch {
		case t == 0:
			anchor = "start"
		case t == ticks:
			anchor = "end"
			label = virtualSpan(total)
		default:
			label = virtualTick(total * int64(t) / ticks)
		}
		fmt.Fprintf(w, `<text x="%d" y="%d" font-family="sans-serif" font-size="%d" text-anchor="%s">%s</text>`+"\n",
			px, axisY+15, fontSize, anchor, xmlEscape(label))
	}
	if len(spans) > 0 {
		fmt.Fprintf(w, `<rect x="%d" y="%d" width="10" height="10" fill="#d62728" fill-opacity="0.13" stroke="#d62728" stroke-width="0.5"/>`+"\n",
			left, axisY+22)
		fmt.Fprintf(w, `<text x="%d" y="%d" font-family="sans-serif" font-size="%d">overloaded windows (queue full or sheds)</text>`+"\n",
			left+14, axisY+31, fontSize-1)
	}
	fmt.Fprintln(w, `</svg>`)
}

func sep(i int) string {
	if i == 0 {
		return ""
	}
	return " "
}

// virtualTick renders a virtual-ns instant for an interior axis tick.
func virtualTick(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2f s", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2f ms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.2f µs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%d ns", ns)
	}
}

// virtualSpan renders a virtual-ns span for the axis-end label.
func virtualSpan(ns int64) string { return virtualTick(ns) + " virtual" }
