package obs

import (
	"encoding/json"
	"testing"

	"repro/internal/sim"
)

func TestSamplerCounterWindowsSumToTotal(t *testing.T) {
	s := NewSampler(10 * sim.Microsecond)
	c := s.Counter("ops")
	times := []sim.Time{0, 5_000, 10_000, 19_999, 20_000, 95_000}
	for i, at := range times {
		c.Add(at, int64(i+1))
	}
	ts := s.Snapshot(100_000)
	if ts.Windows != 11 {
		t.Fatalf("windows = %d, want 11", ts.Windows)
	}
	got, ok := ts.CounterTotal("ops")
	if !ok || got != 21 {
		t.Fatalf("CounterTotal = %d,%v want 21,true", got, ok)
	}
	want := []int64{1 + 2, 3 + 4, 5, 0, 0, 0, 0, 0, 0, 6, 0}
	for w, v := range want {
		if ts.Counters[0].Values[w] != v {
			t.Fatalf("window %d = %d, want %d", w, ts.Counters[0].Values[w], v)
		}
	}
}

func TestSamplerGaugeCarryForward(t *testing.T) {
	s := NewSampler(10)
	g := s.Gauge("depth")
	g.Set(5, 7)          // window 0
	g.Set(8, 3)          // window 0: last 3, max 7
	g.Set(35, 9)         // window 3
	ts := s.Snapshot(59) // 6 windows
	gs := ts.Gauges[0]
	wantLast := []int64{3, 3, 3, 9, 9, 9}
	wantMax := []int64{7, 3, 3, 9, 9, 9}
	for w := range wantLast {
		if gs.Last[w] != wantLast[w] || gs.Max[w] != wantMax[w] {
			t.Fatalf("window %d: last=%d max=%d, want %d/%d",
				w, gs.Last[w], gs.Max[w], wantLast[w], wantMax[w])
		}
	}
}

func TestSamplerGaugeMaxIncludesCarryIn(t *testing.T) {
	s := NewSampler(10)
	g := s.Gauge("depth")
	g.Set(1, 50) // window 0
	g.Set(15, 2) // window 1 sampled below the carried-in 50
	ts := s.Snapshot(19)
	gs := ts.Gauges[0]
	if gs.Max[1] != 50 {
		t.Fatalf("window 1 max = %d, want carried-in 50", gs.Max[1])
	}
	if gs.Last[1] != 2 {
		t.Fatalf("window 1 last = %d, want 2", gs.Last[1])
	}
}

func TestSamplerHistWindowedQuantiles(t *testing.T) {
	s := NewSampler(1000)
	h := s.Hist("lat")
	// Window 0: values 1..100 (all below 32 exact or bucketed).
	for v := int64(1); v <= 100; v++ {
		h.Observe(sim.Time(v), v)
	}
	// Window 2: constant 7.
	for i := 0; i < 10; i++ {
		h.Observe(2500, 7)
	}
	ts := s.Snapshot(2999)
	hs := ts.Hists[0]
	if len(hs.Windows) != 2 {
		t.Fatalf("flushed windows = %d, want 2", len(hs.Windows))
	}
	w0, w2 := hs.Windows[0], hs.Windows[1]
	if w0.Window != 0 || w2.Window != 2 {
		t.Fatalf("window indices = %d,%d want 0,2", w0.Window, w2.Window)
	}
	if w0.N != 100 || w0.Sum != 5050 || w0.Max != 100 {
		t.Fatalf("w0 = %+v", w0)
	}
	if w2.N != 10 || w2.Sum != 70 || w2.P50 != 7 || w2.P99 != 7 {
		t.Fatalf("w2 = %+v", w2)
	}
	// Conservation across windows.
	var n uint64
	var sum int64
	for _, w := range hs.Windows {
		n += w.N
		sum += w.Sum
	}
	if n != 110 || sum != 5120 {
		t.Fatalf("window totals n=%d sum=%d, want 110/5120", n, sum)
	}
}

func TestSamplerHistNonMonotoneFoldsIntoOpenWindow(t *testing.T) {
	s := NewSampler(10)
	h := s.Hist("lat")
	h.Observe(25, 1) // window 2
	h.Observe(5, 2)  // stray earlier time: folds into window 2
	ts := s.Snapshot(29)
	hs := ts.Hists[0]
	if len(hs.Windows) != 1 || hs.Windows[0].Window != 2 || hs.Windows[0].N != 2 {
		t.Fatalf("windows = %+v, want one window 2 with n=2", hs.Windows)
	}
}

func TestSamplerSnapshotDeterministicJSON(t *testing.T) {
	build := func() TimeSeries {
		s := NewSampler(100)
		s.Counter("b").Add(50, 1)
		s.Counter("a").Add(150, 2)
		s.Gauge("g").Set(10, 5)
		s.Hist("h").Observe(20, 30)
		return s.Snapshot(199)
	}
	j1, err := json.Marshal(build())
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := json.Marshal(build())
	if string(j1) != string(j2) {
		t.Fatalf("snapshot JSON not deterministic:\n%s\n%s", j1, j2)
	}
	if ts := build(); ts.Counters[0].Name != "a" || ts.Counters[1].Name != "b" {
		t.Fatal("counter series not name-sorted")
	}
}

func TestSamplerFlatten(t *testing.T) {
	s := NewSampler(10)
	s.Counter("c").Add(5, 3)
	s.Gauge("g").Set(5, 2)
	s.Hist("h").Observe(15, 40)
	ts := s.Snapshot(19)
	flat := ts.Flatten()
	names := make([]string, len(flat))
	for i, f := range flat {
		names[i] = f.Name
		if len(f.Values) != ts.Windows {
			t.Fatalf("series %s length %d, want %d", f.Name, len(f.Values), ts.Windows)
		}
	}
	want := []string{"c", "g", "g.max", "h.count", "h.max", "h.p50", "h.p99", "h.sum"}
	if len(names) != len(want) {
		t.Fatalf("flat series %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("flat series %v, want %v", names, want)
		}
	}
}

// TestSamplerDisabledZeroAllocs pins the disabled path to zero
// allocations, like the recorder's and registry's: a nil sampler hands
// out nil handles whose methods no-op.
func TestSamplerDisabledZeroAllocs(t *testing.T) {
	var s *Sampler
	c := s.Counter("x")
	g := s.Gauge("y")
	h := s.Hist("z")
	allocs := testing.AllocsPerRun(100, func() {
		c.Add(123, 4)
		c.Inc(456)
		g.Set(789, 1)
		h.Observe(1000, 2)
		_ = s.Width()
	})
	if allocs != 0 {
		t.Fatalf("disabled sampler path allocates %v per op, want 0", allocs)
	}
	if ts := s.Snapshot(100); ts.Windows != 0 || len(ts.Counters) != 0 {
		t.Fatalf("nil sampler snapshot = %+v, want zero", ts)
	}
}

// A sampler opens at most WindowBudget windows: samples past the budget
// are refused, the snapshot keeps the first WindowBudget windows, and
// Overflow names the windows the run needed and a width that fits.
func TestSamplerWindowBudget(t *testing.T) {
	s := NewSampler(sim.Microsecond)
	c, g, h := s.Counter("c"), s.Gauge("g"), s.Hist("h")
	in := sim.Time(5 * sim.Microsecond)
	late := sim.Time(3 * WindowBudget * sim.Microsecond)
	c.Add(in, 2)
	c.Add(late, 7)
	g.Set(in, 4)
	g.Set(late, 9)
	h.Observe(in, 10)
	h.Observe(late, 20)
	ts := s.Snapshot(in)
	if ts.Windows != WindowBudget || len(ts.Counters[0].Values) != WindowBudget || len(ts.Gauges[0].Max) != WindowBudget {
		t.Fatalf("snapshot holds %d windows (%d counter values), want the budget %d",
			ts.Windows, len(ts.Counters[0].Values), WindowBudget)
	}
	if got, _ := ts.CounterTotal("c"); got != 2 {
		t.Fatalf("counter total %d, want the 2 charged inside the budget", got)
	}
	if g := ts.Gauges[0]; g.Max[WindowBudget-1] != 4 {
		t.Fatalf("gauge ends at %d, want the in-budget 4", g.Max[WindowBudget-1])
	}
	if wins := ts.Hists[0].Windows; len(wins) != 1 || wins[0].N != 1 {
		t.Fatalf("histogram windows %+v, want the one in-budget observation", wins)
	}
	want := &BudgetError{Width: sim.Microsecond, Need: 3*WindowBudget + 1, Fit: 4 * sim.Microsecond}
	if ts.Overflow == nil || *ts.Overflow != *want {
		t.Fatalf("overflow %+v, want %+v", ts.Overflow, want)
	}

	// A run ending past the budget overflows even with every sample in it.
	s = NewSampler(sim.Millisecond)
	s.Counter("c").Inc(0)
	ts = s.Snapshot(sim.Time(2000 * sim.Second))
	if ts.Overflow == nil || ts.Overflow.Need != 2_000_001 || ts.Overflow.Fit != 31*sim.Millisecond {
		t.Fatalf("overflow %+v, want 2000001 windows needed and 31ms fitting", ts.Overflow)
	}
	if ts.Windows != WindowBudget {
		t.Fatalf("snapshot holds %d windows, want %d", ts.Windows, WindowBudget)
	}

	// Inside the budget nothing is reported.
	s = NewSampler(sim.Millisecond)
	s.Counter("c").Inc(sim.Time((WindowBudget - 1) * sim.Millisecond))
	if ts := s.Snapshot(0); ts.Overflow != nil || ts.Windows != WindowBudget {
		t.Fatalf("a run filling the budget exactly: overflow %+v, %d windows", ts.Overflow, ts.Windows)
	}
}

// The layer benchmarks' virtual-time schedule: 64 ops to each 100 ms
// window, the default -window, and a fresh sampler or reservoir every
// benchLap ops (1,024 windows), so an enabled run stays inside
// WindowBudget and its memory stays bounded at any b.N.
const (
	benchWidth     = 100 * sim.Millisecond
	benchPerWindow = 64
	benchLap       = 1024 * benchPerWindow
)

// benchTime is op i's virtual time on the benchmark schedule.
func benchTime(i int) sim.Time {
	return sim.Time(int64(i%benchLap) * int64(benchWidth) / benchPerWindow)
}

// benchState names a layer benchmark's enabled or disabled variant.
func benchState(enabled bool) string {
	if enabled {
		return "enabled"
	}
	return "disabled"
}

// BenchmarkSampler is the time-series layer's write: one counter, one
// gauge and one histogram observation per op at advancing virtual time,
// through a sampler's handles (enabled) or a nil sampler's (disabled).
func BenchmarkSampler(b *testing.B) {
	for _, enabled := range []bool{false, true} {
		b.Run(benchState(enabled), func(b *testing.B) {
			var (
				c *SeriesCounter
				g *SeriesGauge
				h *SeriesHist
			)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%benchLap == 0 {
					var s *Sampler
					if enabled {
						s = NewSampler(benchWidth)
					}
					c, g, h = s.Counter("ops"), s.Gauge("queue"), s.Hist("latency")
				}
				t := benchTime(i)
				c.Inc(t)
				g.Set(t, int64(i&63))
				h.Observe(t, int64(i&1023+1)*1000)
			}
		})
	}
}
