// Package report renders experiment results: paper-style tables with
// mean / std-dev / normalised columns, ASCII plots for figures, and CSV
// for external plotting.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/stats"
)

// Table writes a paper-style table: one row per series with Mean,
// Std Dev % and Norm. columns, plus the paper's reported value when the
// experiment carries one.
func Table(w io.Writer, r *core.Result) {
	fmt.Fprintf(w, "%s — %s\n", r.ID, r.Title)
	hasPaper := len(r.Expected) > 0

	means := make([]float64, len(r.Series))
	for i, s := range r.Series {
		means[i] = s.Samples[0].Mean()
	}
	norm := stats.Normalize(means, r.Direction)

	header := fmt.Sprintf("  %-34s %12s %9s %7s", "System", "Mean ("+r.YUnit+")", "Std Dev", "Norm.")
	if hasPaper {
		header += fmt.Sprintf(" %14s %9s", "Paper ("+r.YUnit+")", "Ratio")
	}
	fmt.Fprintln(w, header)
	fmt.Fprintln(w, "  "+strings.Repeat("-", len(header)-2))
	for i, s := range r.Series {
		line := fmt.Sprintf("  %-34s %12.2f %8.2f%% %7.2f",
			s.Label, means[i], 100*s.Samples[0].RelStdDev(), norm[i])
		if hasPaper {
			if exp, ok := r.ExpectationFor(s.Label); ok {
				line += fmt.Sprintf(" %14.2f %9.2f", exp.Mean, stats.Ratio(means[i], exp.Mean))
			} else {
				line += fmt.Sprintf(" %14s %9s", "-", "-")
			}
		}
		fmt.Fprintln(w, line)
	}
	writeNotes(w, r)
}

// Figure writes an ASCII plot of the result's series.
func Figure(w io.Writer, r *core.Result) {
	fmt.Fprintf(w, "%s — %s\n", r.ID, r.Title)
	plot(w, r, 72, 20)
	// Also print a compact numeric summary per series.
	for _, s := range r.Series {
		first := s.Samples[0].Mean()
		last := s.Samples[len(s.Samples)-1].Mean()
		peak := math.Inf(-1)
		for _, smp := range s.Samples {
			if m := smp.Mean(); m > peak {
				peak = m
			}
		}
		fmt.Fprintf(w, "  %-42s first %9.2f  peak %9.2f  last %9.2f %s\n",
			s.Label, first, peak, last, r.YUnit)
	}
	writeNotes(w, r)
}

// Render picks Table or Figure by kind.
func Render(w io.Writer, r *core.Result) {
	if r.Kind == core.Table {
		Table(w, r)
	} else {
		Figure(w, r)
	}
}

func writeNotes(w io.Writer, r *core.Result) {
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// plotGlyphs mark the different series.
var plotGlyphs = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}

// plot draws all series on one canvas. X may be log-scaled per the
// result; Y is linear from zero, so a mean that is negative or not finite
// has no row: it is left off the canvas and counted under it.
func plot(w io.Writer, r *core.Result, width, height int) {
	if len(r.Series) == 0 || len(r.Series[0].X) == 0 {
		fmt.Fprintln(w, "  (no points)")
		return
	}
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymax := math.Inf(-1)
	for _, s := range r.Series {
		for i, x := range s.X {
			fx := scaleX(x, r.LogX)
			xmin = math.Min(xmin, fx)
			xmax = math.Max(xmax, fx)
			if m := s.Samples[i].Mean(); plottable(m) {
				ymax = math.Max(ymax, m)
			}
		}
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax <= 0 {
		ymax = 1
	}

	canvas := make([][]byte, height)
	for i := range canvas {
		canvas[i] = []byte(strings.Repeat(" ", width))
	}
	unplotted := 0
	for si, s := range r.Series {
		glyph := plotGlyphs[si%len(plotGlyphs)]
		for i, x := range s.X {
			m := s.Samples[i].Mean()
			if !plottable(m) {
				unplotted++
				continue
			}
			cx := int(float64(width-1) * (scaleX(x, r.LogX) - xmin) / (xmax - xmin))
			cy := int(float64(height-1) * m / ymax)
			row := height - 1 - cy
			if row < 0 {
				row = 0
			}
			if cx < 0 {
				cx = 0
			}
			canvas[row][cx] = glyph
		}
	}
	fmt.Fprintf(w, "  %.6g %s\n", ymax, r.YUnit)
	for _, row := range canvas {
		fmt.Fprintf(w, "  |%s\n", string(row))
	}
	fmt.Fprintf(w, "  +%s\n", strings.Repeat("-", width))
	if unplotted > 0 {
		fmt.Fprintf(w, "   (%d points not plotted: mean negative or not finite)\n", unplotted)
	}
	scale := "linear"
	if r.LogX {
		scale = "log"
	}
	fmt.Fprintf(w, "   %-12s %s (%s scale)\n", xLabelLeft(r), r.XLabel, scale)
	for si, s := range r.Series {
		fmt.Fprintf(w, "   %c = %s\n", plotGlyphs[si%len(plotGlyphs)], s.Label)
	}
}

// plottable reports whether a mean has a row on a canvas that runs from
// zero up to a finite top.
func plottable(mean float64) bool { return mean >= 0 && !math.IsInf(mean, 1) }

func xLabelLeft(r *core.Result) string {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range r.Series {
		for _, x := range s.X {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
	}
	return fmt.Sprintf("%.6g..%.6g", lo, hi)
}

func scaleX(x float64, log bool) float64 {
	if log && x > 0 {
		return math.Log2(x)
	}
	return x
}

// CSV writes the result as comma-separated values: one line per
// (series, x) with mean and relative std dev.
func CSV(w io.Writer, r *core.Result) {
	fmt.Fprintf(w, "experiment,series,x,mean_%s,stddev_pct\n", sanitize(r.YUnit))
	for _, s := range r.Series {
		if len(s.X) == 0 {
			fmt.Fprintf(w, "%s,%s,,%g,%g\n", r.ID, sanitize(s.Label),
				s.Samples[0].Mean(), 100*s.Samples[0].RelStdDev())
			continue
		}
		for i, x := range s.X {
			fmt.Fprintf(w, "%s,%s,%g,%g,%g\n", r.ID, sanitize(s.Label), x,
				s.Samples[i].Mean(), 100*s.Samples[i].RelStdDev())
		}
	}
}

func sanitize(s string) string {
	return strings.NewReplacer(",", ";", "\n", " ").Replace(s)
}
