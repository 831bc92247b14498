package obs

// Virtual-time time-series sampling (DESIGN.md §14). The registry's
// counters and the models' ledgers are end-of-run aggregates; the Sampler
// keeps the *time dimension*: fixed-width virtual-time windows holding
// per-window counter deltas, gauge samples, and windowed latency
// histograms, so queue buildup, retry storms, overload onset and warm-up
// transients are visible instead of averaged away.
//
// The design follows the recorder/registry conventions of this package:
//
//   - Zero cost when off. The disabled state is a nil *Sampler handing out
//     nil series handles; every method is a nil-receiver no-op performing
//     no allocation, so instrumented hot paths cost one predictable
//     branch. TestSamplerDisabledZeroAllocs holds this.
//
//   - Determinism. Every sample is stamped with virtual time supplied by
//     the caller (models pass their sim.Clock's now), never the wall
//     clock, and each single-threaded model run owns its own Sampler;
//     the harness merges per-run series in input order. Snapshot output
//     is sorted by series name, so the bytes of a rendered time series
//     are a pure function of the model's inputs at any worker count.
//
//   - Conservation. A counter series charges each delta to the window the
//     charging event falls in, so the per-window deltas of a series sum
//     exactly to the model's end-of-run total — the windowed form of the
//     repository's ledger-equals-elapsed bar.
//
//   - Bounded. A sampler opens at most WindowBudget windows, whatever the
//     run's virtual length over the width; a longer run is reported as an
//     overflow (TimeSeries.Overflow), never paid for in memory.

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/stats"
)

// WindowBudget is the most windows one Sampler opens. It covers every
// S1/S2 run at the default 100 ms width (at most 20,046 windows, at any
// client count) and at 1 ms from 1,000 clients up (at most 48,360). A
// sample past it opens no window: the snapshot keeps the first
// WindowBudget windows and reports the overflow.
const WindowBudget = 1 << 16

// BudgetError reports a run that needed more than WindowBudget windows at
// its sampler's width, so its series hold only the run's beginning.
type BudgetError struct {
	// Width is the sampler's window width and Need the windows the run
	// asked for at it; Fit is the narrowest width (rounded up to a whole
	// millisecond, or microsecond below one) whose windows fit the budget.
	Width sim.Duration
	Need  int
	Fit   sim.Duration
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("%v windows: the run needs %d, past the sampler's budget of %d; the narrowest window that fits is %v",
		e.Width, e.Need, WindowBudget, e.Fit)
}

// Sampler collects fixed-width virtual-time window series for one
// single-threaded model run. A nil *Sampler is the disabled state: it
// hands out nil handles and every method no-ops. Sampler is not safe for
// concurrent use; parallel harness code gives each run its own.
type Sampler struct {
	width    int64
	counters []*SeriesCounter
	gauges   []*SeriesGauge
	hists    []*SeriesHist
}

// NewSampler returns a sampler with the given window width. It panics on
// a non-positive width — a programming error, not a runtime condition.
func NewSampler(width sim.Duration) *Sampler {
	if width <= 0 {
		panic("obs: sampler window width must be positive")
	}
	return &Sampler{width: int64(width)}
}

// Width returns the window width (0 on nil).
func (s *Sampler) Width() sim.Duration {
	if s == nil {
		return 0
	}
	return sim.Duration(s.width)
}

// windowOf maps a virtual time to its window index; negative times (a
// clockless model passing 0-d) clamp to the first window.
func windowOf(t sim.Time, width int64) int {
	if t <= 0 {
		return 0
	}
	return int(int64(t) / width)
}

// Counter registers (or finds) a windowed counter series: per-window
// deltas that sum exactly to the series total.
func (s *Sampler) Counter(name string) *SeriesCounter {
	if s == nil {
		return nil
	}
	for _, c := range s.counters {
		if c.name == name {
			return c
		}
	}
	c := &SeriesCounter{name: name, width: s.width}
	s.counters = append(s.counters, c)
	return c
}

// Gauge registers (or finds) a windowed gauge series: the last and the
// maximum sampled value per window, carried forward through unsampled
// windows at snapshot time (a gauge holds its value).
func (s *Sampler) Gauge(name string) *SeriesGauge {
	if s == nil {
		return nil
	}
	for _, g := range s.gauges {
		if g.name == name {
			return g
		}
	}
	g := &SeriesGauge{name: name, width: s.width}
	s.gauges = append(s.gauges, g)
	return g
}

// Hist registers (or finds) a windowed histogram series: observations
// stream through one reusable stats.Histogram per window, flushed to a
// compact per-window summary (count, sum, max, p50, p99) when virtual
// time crosses into the next window.
func (s *Sampler) Hist(name string) *SeriesHist {
	if s == nil {
		return nil
	}
	for _, h := range s.hists {
		if h.name == name {
			return h
		}
	}
	h := &SeriesHist{name: name, width: s.width, curWin: -1}
	s.hists = append(s.hists, h)
	return h
}

// SeriesCounter is one windowed counter. A nil handle ignores updates.
type SeriesCounter struct {
	name  string
	width int64
	vals  []int64
	// late is the latest time a sample fell past the window budget (0
	// when none did); the gauge and histogram keep one too.
	late sim.Time
}

// Add charges v to the window holding t.
func (c *SeriesCounter) Add(t sim.Time, v int64) {
	if c == nil {
		return
	}
	w := windowOf(t, c.width)
	if w >= WindowBudget {
		c.late = max(c.late, t)
		return
	}
	for len(c.vals) <= w {
		c.vals = append(c.vals, 0)
	}
	c.vals[w] += v
}

// Inc charges one to the window holding t.
func (c *SeriesCounter) Inc(t sim.Time) { c.Add(t, 1) }

// SeriesGauge is one windowed gauge. A nil handle ignores updates.
type SeriesGauge struct {
	name  string
	width int64
	last  []int64
	max   []int64
	seen  []bool
	late  sim.Time
}

// Set records the gauge's value at time t.
func (g *SeriesGauge) Set(t sim.Time, v int64) {
	if g == nil {
		return
	}
	w := windowOf(t, g.width)
	if w >= WindowBudget {
		g.late = max(g.late, t)
		return
	}
	for len(g.last) <= w {
		g.last = append(g.last, 0)
		g.max = append(g.max, 0)
		g.seen = append(g.seen, false)
	}
	if !g.seen[w] || v > g.max[w] {
		g.max[w] = v
	}
	g.last[w] = v
	g.seen[w] = true
}

// SeriesHist is one windowed histogram. A nil handle ignores updates.
// Virtual time is expected to be non-decreasing across Observe calls
// (models run on one event engine, so completion times are); a stray
// earlier time is folded into the current window rather than lost, so
// the count and sum conservation laws hold regardless.
type SeriesHist struct {
	name   string
	width  int64
	cur    stats.Histogram
	curWin int
	wins   []HistWindow
	late   sim.Time
}

// HistWindow is one flushed histogram window: the window index and the
// summary of the observations that fell in it. P50 and P99 are
// bucket-upper-boundary nearest-rank quantiles (stats.Histogram.Quantile);
// Sum and Max are exact.
type HistWindow struct {
	Window int    `json:"window"`
	N      uint64 `json:"n"`
	Sum    int64  `json:"sum"`
	Max    int64  `json:"max"`
	P50    int64  `json:"p50"`
	P99    int64  `json:"p99"`
}

// Observe records one observation at time t.
func (h *SeriesHist) Observe(t sim.Time, v int64) {
	if h == nil {
		return
	}
	w := windowOf(t, h.width)
	if w >= WindowBudget {
		h.late = max(h.late, t)
		return
	}
	if w < h.curWin {
		w = h.curWin // non-monotone stray: fold into the open window
	}
	if w != h.curWin {
		h.flush()
		h.curWin = w
	}
	h.cur.Observe(v)
}

// flush summarizes the open window (if it holds observations) and resets
// the scratch histogram for the next one.
func (h *SeriesHist) flush() {
	if h.cur.N() == 0 {
		return
	}
	h.wins = append(h.wins, HistWindow{
		Window: h.curWin,
		N:      h.cur.N(),
		Sum:    h.cur.Sum(),
		Max:    h.cur.Max(),
		P50:    h.cur.Quantile(0.5),
		P99:    h.cur.Quantile(0.99),
	})
	h.cur = stats.Histogram{}
}

// CounterSeries is one counter's snapshot: dense per-window deltas.
type CounterSeries struct {
	Name   string  `json:"name"`
	Values []int64 `json:"values"`
}

// GaugeSeries is one gauge's snapshot: the last and maximum sampled value
// per window, carried forward through unsampled windows (a window the
// model never sampled in reports the value the gauge held entering it).
type GaugeSeries struct {
	Name string  `json:"name"`
	Last []int64 `json:"last"`
	Max  []int64 `json:"max"`
}

// HistSeries is one histogram's snapshot: sparse flushed windows, in
// ascending window order.
type HistSeries struct {
	Name    string       `json:"name"`
	Windows []HistWindow `json:"windows"`
}

// TimeSeries is a sampler's snapshot: every series, name-sorted within
// its kind, over a common window count. It marshals to deterministic
// JSON (no maps, sorted slices).
type TimeSeries struct {
	// WidthNs is the window width in virtual nanoseconds.
	WidthNs int64 `json:"width_ns"`
	// Windows is the common dense length: enough windows to cover the
	// snapshot end time and every recorded sample.
	Windows  int             `json:"windows"`
	Counters []CounterSeries `json:"counters,omitempty"`
	Gauges   []GaugeSeries   `json:"gauges,omitempty"`
	Hists    []HistSeries    `json:"hists,omitempty"`
	// Exemplars carries the per-window sampled request lifecycles when
	// exemplar tracing is enabled (see exemplar.go); the harness attaches
	// an Exemplars reservoir's Snapshot after the run.
	Exemplars []ExemplarWindow `json:"exemplars,omitempty"`
	// Overflow is set when the run needed more than WindowBudget windows:
	// the series then hold only the first WindowBudget and are incomplete.
	Overflow *BudgetError `json:"-"`
}

// Snapshot captures the sampler's series as of end (the run's final
// virtual time): counters densified to a common window count, gauges
// carried forward, open histogram windows flushed. A nil sampler yields
// the zero TimeSeries. Snapshot may be called once per run; histogram
// scratch state is consumed by the flush. A run that needed more than
// WindowBudget windows snapshots the first WindowBudget and sets
// Overflow.
func (s *Sampler) Snapshot(end sim.Time) TimeSeries {
	if s == nil {
		return TimeSeries{}
	}
	last := end // the latest time the run asked a window for
	n := windowOf(end, s.width) + 1
	for _, c := range s.counters {
		n = max(n, len(c.vals))
		last = max(last, c.late)
	}
	for _, g := range s.gauges {
		n = max(n, len(g.last))
		last = max(last, g.late)
	}
	for _, h := range s.hists {
		h.flush()
		if len(h.wins) > 0 {
			n = max(n, h.wins[len(h.wins)-1].Window+1)
		}
		last = max(last, h.late)
	}
	ts := TimeSeries{WidthNs: s.width, Windows: n}
	if need := windowOf(last, s.width) + 1; need > WindowBudget {
		ts.Windows = WindowBudget
		ts.Overflow = &BudgetError{Width: s.Width(), Need: need, Fit: fitWidth(last)}
	}
	n = ts.Windows
	for _, c := range s.counters {
		vals := make([]int64, n)
		copy(vals, c.vals)
		ts.Counters = append(ts.Counters, CounterSeries{Name: c.name, Values: vals})
	}
	for _, g := range s.gauges {
		last := make([]int64, n)
		max := make([]int64, n)
		var carry int64
		for w := 0; w < n; w++ {
			if w < len(g.seen) && g.seen[w] {
				last[w] = g.last[w]
				max[w] = g.max[w]
				if carry > max[w] {
					// The gauge entered the window above its sampled max
					// and must have passed through that value.
					max[w] = carry
				}
				carry = g.last[w]
				continue
			}
			last[w] = carry
			max[w] = carry
		}
		ts.Gauges = append(ts.Gauges, GaugeSeries{Name: g.name, Last: last, Max: max})
	}
	for _, h := range s.hists {
		wins := append([]HistWindow(nil), h.wins...)
		ts.Hists = append(ts.Hists, HistSeries{Name: h.name, Windows: wins})
	}
	sort.Slice(ts.Counters, func(i, j int) bool { return ts.Counters[i].Name < ts.Counters[j].Name })
	sort.Slice(ts.Gauges, func(i, j int) bool { return ts.Gauges[i].Name < ts.Gauges[j].Name })
	sort.Slice(ts.Hists, func(i, j int) bool { return ts.Hists[i].Name < ts.Hists[j].Name })
	return ts
}

// fitWidth is the narrowest window width that puts last inside the
// budget's final window, rounded up to a whole millisecond (or, below
// one, microsecond) so that it reads as a -window value.
func fitWidth(last sim.Time) sim.Duration {
	w := sim.Duration(int64(last)/WindowBudget + 1)
	unit := sim.Millisecond
	if w < unit {
		unit = sim.Microsecond
	}
	return (w + unit - 1) / unit * unit
}

// CounterTotal returns the window sum of the named counter series and
// whether the series exists — the reconciliation hook: the total must
// equal the model's end-of-run ledger counter.
func (ts *TimeSeries) CounterTotal(name string) (int64, bool) {
	for _, c := range ts.Counters {
		if c.Name == name {
			var sum int64
			for _, v := range c.Values {
				sum += v
			}
			return sum, true
		}
	}
	return 0, false
}

// FlatSeries is one renderable series: a name and one int64 value per
// window, dense. Flatten lowers every series kind to this shape so CSV
// and SVG rendering share one walk.
type FlatSeries struct {
	Name   string
	Values []int64
}

// Flatten lowers the snapshot to dense flat series, name-sorted:
// counters keep their name and per-window deltas; a gauge g becomes
// "g" (last) and "g.max"; a histogram h becomes "h.count", "h.sum",
// "h.p50", "h.p99" and "h.max" (empty windows report zero).
func (ts *TimeSeries) Flatten() []FlatSeries {
	var out []FlatSeries
	for _, c := range ts.Counters {
		out = append(out, FlatSeries{Name: c.Name, Values: c.Values})
	}
	for _, g := range ts.Gauges {
		out = append(out, FlatSeries{Name: g.Name, Values: g.Last})
		out = append(out, FlatSeries{Name: g.Name + ".max", Values: g.Max})
	}
	for _, h := range ts.Hists {
		count := make([]int64, ts.Windows)
		sum := make([]int64, ts.Windows)
		p50 := make([]int64, ts.Windows)
		p99 := make([]int64, ts.Windows)
		max := make([]int64, ts.Windows)
		for _, w := range h.Windows {
			if w.Window < 0 || w.Window >= ts.Windows {
				continue
			}
			count[w.Window] = int64(w.N)
			sum[w.Window] = w.Sum
			p50[w.Window] = w.P50
			p99[w.Window] = w.P99
			max[w.Window] = w.Max
		}
		out = append(out, FlatSeries{Name: h.Name + ".count", Values: count})
		out = append(out, FlatSeries{Name: h.Name + ".sum", Values: sum})
		out = append(out, FlatSeries{Name: h.Name + ".p50", Values: p50})
		out = append(out, FlatSeries{Name: h.Name + ".p99", Values: p99})
		out = append(out, FlatSeries{Name: h.Name + ".max", Values: max})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
