package report

import (
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/core"
)

// SVG writes a publication-style plot of a figure result (or a bar chart
// for a table result) as a standalone SVG document, so the reproduction's
// figures can be compared with the paper's side by side.
func SVG(w io.Writer, r *core.Result) {
	const (
		width, height       = 720, 480
		left, right         = 70, 160 // right margin holds the legend
		top, bottom         = 50, 60
		plotW, plotH        = width - left - right, height - top - bottom
		tickLen             = 5
		fontSize, titleSize = 12, 15
	)

	fmt.Fprintf(w, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		width, height, width, height)
	fmt.Fprintf(w, `<rect width="%d" height="%d" fill="white"/>`+"\n", width, height)
	fmt.Fprintf(w, `<text x="%d" y="%d" font-family="sans-serif" font-size="%d" font-weight="bold">%s — %s</text>`+"\n",
		left, top-25, titleSize, xmlEscape(r.ID), xmlEscape(r.Title))

	if len(r.Series) == 0 {
		fmt.Fprintln(w, `</svg>`)
		return
	}

	// Tables render as grouped bars.
	if r.Kind == core.Table {
		svgBars(w, r, left, top, plotW, plotH, fontSize)
		fmt.Fprintln(w, `</svg>`)
		return
	}

	// Domain. Y is linear from zero, so a mean that is negative or not
	// finite is left out of it, as report.plot leaves it off its canvas.
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymax := 0.0
	unplotted := 0
	for _, s := range r.Series {
		for i, x := range s.X {
			fx := scaleX(x, r.LogX)
			xmin, xmax = math.Min(xmin, fx), math.Max(xmax, fx)
			if m := s.Samples[i].Mean(); plottable(m) {
				ymax = math.Max(ymax, m)
			} else {
				unplotted++
			}
		}
	}
	if xmax == xmin {
		xmax++
	}
	if ymax == 0 {
		ymax = 1
	}
	ymax *= 1.05

	px := func(x float64) float64 {
		return left + plotW*(scaleX(x, r.LogX)-xmin)/(xmax-xmin)
	}
	py := func(y float64) float64 {
		return top + plotH*(1-y/ymax)
	}

	// Axes.
	fmt.Fprintf(w, `<rect x="%d" y="%d" width="%d" height="%d" fill="none" stroke="black"/>`+"\n",
		left, top, plotW, plotH)

	// Y ticks: 5 even divisions.
	for i := 0; i <= 5; i++ {
		v := ymax * float64(i) / 5
		y := py(v)
		fmt.Fprintf(w, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="black"/>`+"\n",
			left-tickLen, y, left, y)
		fmt.Fprintf(w, `<text x="%d" y="%.1f" font-family="sans-serif" font-size="%d" text-anchor="end">%s</text>`+"\n",
			left-tickLen-3, y+4, fontSize, trimNum(v))
		if i > 0 {
			fmt.Fprintf(w, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#dddddd"/>`+"\n",
				left, y, left+plotW, y)
		}
	}
	fmt.Fprintf(w, `<text x="18" y="%d" font-family="sans-serif" font-size="%d" transform="rotate(-90 18 %d)" text-anchor="middle">%s</text>`+"\n",
		top+plotH/2, fontSize, top+plotH/2, xmlEscape(r.YUnit))

	// X ticks at each decade (log) or 5 divisions (linear).
	if r.LogX {
		for e := math.Ceil(math.Exp2(0)); ; e++ {
			v := math.Exp2(float64(int(math.Floor(xmin))) + e - 1)
			if scaleX(v, true) > xmax {
				break
			}
			if scaleX(v, true) < xmin {
				continue
			}
			x := px(v)
			fmt.Fprintf(w, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="black"/>`+"\n",
				x, top+plotH, x, top+plotH+tickLen)
			if int(e)%2 == 1 { // label every other decade to avoid clutter
				fmt.Fprintf(w, `<text x="%.1f" y="%d" font-family="sans-serif" font-size="%d" text-anchor="middle">%s</text>`+"\n",
					x, top+plotH+tickLen+13, fontSize, humanBytes(v))
			}
		}
	} else {
		for i := 0; i <= 5; i++ {
			// Linear domains are plotted against raw X.
			v := xmin + (xmax-xmin)*float64(i)/5
			x := left + float64(plotW)*float64(i)/5
			fmt.Fprintf(w, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="black"/>`+"\n",
				x, top+plotH, x, top+plotH+tickLen)
			fmt.Fprintf(w, `<text x="%.1f" y="%d" font-family="sans-serif" font-size="%d" text-anchor="middle">%s</text>`+"\n",
				x, top+plotH+tickLen+13, fontSize, trimNum(v))
		}
	}
	fmt.Fprintf(w, `<text x="%d" y="%d" font-family="sans-serif" font-size="%d" text-anchor="middle">%s</text>`+"\n",
		left+plotW/2, height-18, fontSize, xmlEscape(r.XLabel))
	svgUnplotted(w, unplotted, left, height-4, fontSize-1)

	// Series.
	for si, s := range r.Series {
		color := svgColors[si%len(svgColors)]
		var pts []string
		for i, x := range s.X {
			if m := s.Samples[i].Mean(); plottable(m) {
				pts = append(pts, fmt.Sprintf("%.1f,%.1f", px(x), py(m)))
			}
		}
		fmt.Fprintf(w, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.8"/>`+"\n",
			strings.Join(pts, " "), color)
		for i, x := range s.X {
			if m := s.Samples[i].Mean(); plottable(m) {
				fmt.Fprintf(w, `<circle cx="%.1f" cy="%.1f" r="2.5" fill="%s"/>`+"\n",
					px(x), py(m), color)
			}
		}
		// Legend entry.
		ly := top + 16*si
		fmt.Fprintf(w, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="2"/>`+"\n",
			left+plotW+10, ly, left+plotW+30, ly, color)
		fmt.Fprintf(w, `<text x="%d" y="%d" font-family="sans-serif" font-size="%d">%s</text>`+"\n",
			left+plotW+35, ly+4, fontSize-1, xmlEscape(s.Label))
	}
	fmt.Fprintln(w, `</svg>`)
}

// svgBars renders a table result as horizontal bars. A row whose mean
// is negative or not finite has no bar; it keeps its label and is
// counted under the chart.
func svgBars(w io.Writer, r *core.Result, left, top, plotW, plotH, fontSize int) {
	max := 0.0
	unplotted := 0
	for _, s := range r.Series {
		if m := s.Samples[0].Mean(); plottable(m) {
			max = math.Max(max, m)
		} else {
			unplotted++
		}
	}
	if max == 0 {
		max = 1
	}
	n := len(r.Series)
	barH := plotH / (n*2 + 1)
	for i, s := range r.Series {
		v := s.Samples[0].Mean()
		y := top + barH*(2*i+1)
		if plottable(v) {
			bw := float64(plotW) * v / (max * 1.1)
			fmt.Fprintf(w, `<rect x="%d" y="%d" width="%.1f" height="%d" fill="%s"/>`+"\n",
				left, y, bw, barH, svgColors[i%len(svgColors)])
			fmt.Fprintf(w, `<text x="%.1f" y="%d" font-family="sans-serif" font-size="%d">%.2f %s</text>`+"\n",
				float64(left)+bw+5, y+barH/2+4, fontSize, v, xmlEscape(r.YUnit))
		}
		fmt.Fprintf(w, `<text x="%d" y="%d" font-family="sans-serif" font-size="%d" text-anchor="end">%s</text>`+"\n",
			left-5, y+barH/2+4, fontSize, xmlEscape(s.Label))
	}
	svgUnplotted(w, unplotted, left, top+plotH+20, fontSize-1)
}

// svgUnplotted notes, at (x, y), the n points a chart left out.
func svgUnplotted(w io.Writer, n, x, y, fontSize int) {
	if n > 0 {
		fmt.Fprintf(w, `<text x="%d" y="%d" font-family="sans-serif" font-size="%d">(%d points not plotted: mean negative or not finite)</text>`+"\n",
			x, y, fontSize, n)
	}
}

var svgColors = []string{
	"#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
	"#8c564b", "#17becf", "#7f7f7f",
}

func xmlEscape(s string) string {
	return strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;").Replace(s)
}

// trimNum formats a number compactly for tick labels.
func trimNum(v float64) string {
	switch {
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// humanBytes renders a byte count tick.
func humanBytes(v float64) string {
	switch {
	case v >= 1<<20:
		return fmt.Sprintf("%.0fM", v/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.0fK", v/(1<<10))
	default:
		return fmt.Sprintf("%.0f", v)
	}
}
