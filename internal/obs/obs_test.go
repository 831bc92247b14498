package obs

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestRecorderSpansAndTracks(t *testing.T) {
	var clock sim.Clock
	rec := NewRecorder(&clock)
	if !rec.Enabled() {
		t.Fatal("live recorder should report Enabled")
	}
	kern := rec.Track("kernel")
	if got := rec.Track("kernel"); got != kern {
		t.Fatalf("Track not idempotent: %d vs %d", got, kern)
	}
	rec.Begin(kern, "syscall")
	clock.Advance(5 * sim.Microsecond)
	rec.InstantAt(clock.Now(), kern, "dispatch", 3, "to pid 3")
	clock.Advance(5 * sim.Microsecond)
	rec.End(kern, "syscall", 10)

	ev := rec.Events()
	if len(ev) != 3 {
		t.Fatalf("got %d events, want 3", len(ev))
	}
	if ev[0].Kind != EvBegin || ev[0].When != 0 {
		t.Errorf("event 0 = %+v, want begin at T+0", ev[0])
	}
	if ev[1].Kind != EvInstant || ev[1].PID != 3 || ev[1].When != sim.Time(5*sim.Microsecond) {
		t.Errorf("event 1 = %+v, want instant pid=3 at 5us", ev[1])
	}
	if ev[2].Kind != EvEnd || ev[2].Cost != 10 {
		t.Errorf("event 2 = %+v, want end cost=10", ev[2])
	}
	tracks := rec.Tracks()
	if len(tracks) != 2 || tracks[0] != "main" || tracks[1] != "kernel" {
		t.Errorf("tracks = %v", tracks)
	}
}

func TestNilRecorderNoOps(t *testing.T) {
	var rec *Recorder
	if rec.Enabled() {
		t.Fatal("nil recorder must report disabled")
	}
	tr := rec.Track("anything")
	rec.Begin(tr, "x")
	rec.End(tr, "x", 1)
	rec.InstantAt(0, tr, "y", 1, "d")
	rec.InstantAtFunc(0, tr, "z", 1, nDetail, "", 4, 0, 0)
	if rec.Events() != nil || rec.Tracks() != nil || rec.Dropped() != 0 {
		t.Fatal("nil recorder must stay empty")
	}
}

func TestRingDropsOldest(t *testing.T) {
	var clock sim.Clock
	rec := NewRing(&clock, 3)
	for i := 0; i < 5; i++ {
		clock.Advance(sim.Microsecond)
		rec.InstantAtFunc(clock.Now(), 0, "ev", i, nDetail, "", int64(i), 0, 0)
	}
	ev := rec.Events()
	if len(ev) != 3 {
		t.Fatalf("ring kept %d events, want 3", len(ev))
	}
	// events 0 and 1 were the oldest and must be gone; 2,3,4 survive in order
	for i, want := range []int{2, 3, 4} {
		if ev[i].PID != want {
			t.Errorf("ring slot %d has pid %d, want %d", i, ev[i].PID, want)
		}
	}
	if ev[0].When >= ev[1].When || ev[1].When >= ev[2].When {
		t.Errorf("ring events out of time order: %v", ev)
	}
	if rec.Dropped() != 2 {
		t.Errorf("Dropped = %d, want 2", rec.Dropped())
	}
	if p := rec.Capture("p"); p.Dropped != 2 {
		t.Errorf("Capture Dropped = %d, want 2", p.Dropped)
	}
}

// nDetail is a DetailFunc for tests: "n=<a>".
func nDetail(_ string, a, _, _ int64) string { return fmt.Sprintf("n=%d", a) }

// TestDeferredDetailFormatsOnlySurvivors records more deferred instants
// than the ring holds: the format function must run once per event the
// ring still holds when Events reads it back, never for an overwritten
// one, and each detail must read as the eager fmt.Sprintf of the same
// values.
func TestDeferredDetailFormatsOnlySurvivors(t *testing.T) {
	const limit, n = 5, 12
	formatted := map[int64]int{}
	format := func(s string, a, b, c int64) string {
		formatted[a]++
		return fmt.Sprintf("%s %d/%d %v", s, a, b, c != 0)
	}
	rec := NewRing(nil, limit)
	for i := int64(0); i < n; i++ {
		rec.InstantAtFunc(sim.Time(i), 0, "ev", int(i), format, "pid", i, 2*i, i%2)
	}
	if len(formatted) != 0 {
		t.Fatalf("format ran for %d events while recording, want 0", len(formatted))
	}
	ev := rec.Events()
	if len(ev) != limit {
		t.Fatalf("ring kept %d events, want %d", len(ev), limit)
	}
	for _, e := range ev {
		i := int64(e.PID)
		if want := fmt.Sprintf("%s %d/%d %v", "pid", i, 2*i, i%2 != 0); e.Detail != want {
			t.Errorf("event %d detail %q, want %q", i, e.Detail, want)
		}
		if formatted[i] != 1 {
			t.Errorf("event %d formatted %d times, want 1", i, formatted[i])
		}
	}
	for i := int64(0); i < n-limit; i++ {
		if formatted[i] != 0 {
			t.Errorf("overwritten event %d formatted %d times, want 0", i, formatted[i])
		}
	}
	if len(formatted) != limit {
		t.Errorf("format ran for %d distinct events, want %d", len(formatted), limit)
	}
	// A slot an eager event overwrites formats as that event.
	rec.InstantAt(n, 0, "plain", 0, "as is")
	if ev := rec.Events(); ev[limit-1].Detail != "as is" {
		t.Errorf("eager detail after a deferred one = %q, want %q", ev[limit-1].Detail, "as is")
	}
}

func TestDroppedZeroWhenComplete(t *testing.T) {
	rec := NewRing(nil, 8)
	for i := 0; i < 8; i++ {
		rec.InstantAt(sim.Time(i), 0, "ev", 0, "")
	}
	if rec.Dropped() != 0 {
		t.Fatalf("Dropped = %d before the ring wraps, want 0", rec.Dropped())
	}
	var unbounded *Recorder
	if unbounded.Dropped() != 0 {
		t.Fatal("nil recorder must report 0 dropped")
	}
	full := NewRecorder(nil)
	for i := 0; i < 100; i++ {
		full.InstantAt(sim.Time(i), 0, "ev", 0, "")
	}
	if full.Dropped() != 0 {
		t.Fatal("unbounded recorder must never drop")
	}
}

func TestDroppedCountsOverwrites(t *testing.T) {
	rec := NewRing(nil, 2)
	for i := 0; i < 5; i++ {
		rec.InstantAt(sim.Time(i), 0, "ev", 0, "")
	}
	if rec.Dropped() != 3 {
		t.Fatalf("Dropped = %d, want 3", rec.Dropped())
	}
}

func TestRingLimitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRing(clock, 0) should panic")
		}
	}()
	NewRing(nil, 0)
}

func TestRegistryCountersAndDists(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("cache.l1_misses")
	if reg.Counter("cache.l1_misses") != c {
		t.Fatal("Counter not idempotent")
	}
	c.Add(1)
	c.Add(2)
	reg.Counter("disk.seeks").Add(4)
	snap := reg.Snapshot()
	if v, ok := snap.Get("cache.l1_misses"); !ok || v != 3 {
		t.Fatalf("Get = %v %v", v, ok)
	}
	if v, ok := snap.Get("disk.seeks"); !ok || v != 4 {
		t.Fatalf("Get(disk.seeks) = %v %v", v, ok)
	}
	if _, ok := snap.Get("missing"); ok {
		t.Fatal("Get(missing) should report absent")
	}
	if len(snap.Counters) != 2 {
		t.Fatalf("counters = %+v", snap.Counters)
	}
}

func TestNilRegistryHandles(t *testing.T) {
	var reg *Registry
	if c := reg.Counter("x"); c != nil {
		t.Fatal("nil registry must hand out a nil counter")
	}
	reg.Counter("x").Add(5)
	if snap := reg.Snapshot(); len(snap.Counters) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestSnapshotSortedAndEqual(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("z.last").Add(1)
	reg.Counter("a.first").Add(2)
	reg.Counter("m.mid").Add(3)
	snap := reg.Snapshot()
	names := []string{snap.Counters[0].Name, snap.Counters[1].Name, snap.Counters[2].Name}
	if names[0] != "a.first" || names[1] != "m.mid" || names[2] != "z.last" {
		t.Fatalf("snapshot not sorted: %v", names)
	}
	if !reflect.DeepEqual(snap, reg.Snapshot()) {
		t.Fatal("an unchanged registry must snapshot identically")
	}
	reg.Counter("a.first").Add(1)
	if reflect.DeepEqual(snap, reg.Snapshot()) {
		t.Fatal("a changed registry must not snapshot as the old one")
	}
}

func TestWriteChromeValidJSON(t *testing.T) {
	var clock sim.Clock
	rec := NewRecorder(&clock)
	tr := rec.Track("cpu")
	rec.Begin(tr, `quote"and\slash`)
	clock.Advance(1500) // 1.5us: exercises fractional timestamps
	rec.InstantAt(clock.Now(), tr, "tick", 7, "detail\nline")
	clock.Advance(500)
	rec.End(tr, `quote"and\slash`, 2.5)

	var buf strings.Builder
	if err := WriteChrome(&buf, []Process{rec.Capture("Linux")}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	var events []map[string]any
	if err := json.Unmarshal([]byte(out), &events); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v\n%s", err, out)
	}
	// 1 process_name + 2 per track (name + sort) * 2 tracks + 3 events
	if len(events) != 1+4+3 {
		t.Fatalf("got %d JSON events, want 8:\n%s", len(events), out)
	}
	var phases []string
	for _, e := range events {
		phases = append(phases, e["ph"].(string))
	}
	want := []string{"M", "M", "M", "M", "M", "B", "i", "E"}
	for i, p := range want {
		if phases[i] != p {
			t.Fatalf("phases = %v, want %v", phases, want)
		}
	}
	if !strings.Contains(out, `"ts":1.5`) {
		t.Errorf("fractional microsecond timestamp missing:\n%s", out)
	}
	if !strings.Contains(out, `"cost":2.5`) {
		t.Errorf("span cost missing:\n%s", out)
	}
}

func TestWriteChromeDeterministic(t *testing.T) {
	build := func() string {
		var clock sim.Clock
		rec := NewRecorder(&clock)
		a, b := rec.Track("a"), rec.Track("b")
		for i := 0; i < 10; i++ {
			clock.Advance(sim.Duration(100 * (i + 1)))
			rec.Begin(a, "op")
			rec.InstantAt(clock.Now(), b, "note", i, "")
			clock.Advance(50)
			rec.End(a, "op", float64(i))
		}
		var buf strings.Builder
		if err := WriteChrome(&buf, []Process{rec.Capture("p")}); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if build() != build() {
		t.Fatal("chrome export not byte-identical across identical runs")
	}
}

// TestDisabledPathZeroAllocs holds the package's core promise: with a nil
// recorder and nil metric handles, instrumented hot paths allocate nothing.
func TestDisabledPathZeroAllocs(t *testing.T) {
	var rec *Recorder
	var reg *Registry
	c := reg.Counter("hot.counter")
	tr := rec.Track("hot")
	allocs := testing.AllocsPerRun(1000, func() {
		rec.Begin(tr, "span")
		rec.InstantAt(0, tr, "point", 1, "")
		rec.End(tr, "span", 1)
		c.Add(2)
		rec.InstantAtFunc(0, tr, "fmt", 1, nDetail, "", 4, 0, 0)
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %v per op, want 0", allocs)
	}
}

// TestEnabledPathSteadyStateAllocBudget pins the enabled-path budget: a
// ring recorder at capacity overwrites in place, and live metric handles
// mutate fields, so a span + instant + counter update allocates nothing once the ring is warm, and so does a deferred
// instant, whose detail is formatted only when the events are read back.
// Constant-string names are part of the contract.
func TestEnabledPathSteadyStateAllocBudget(t *testing.T) {
	var clock sim.Clock
	rec := NewRing(&clock, 1024)
	tr := rec.Track("hot")
	reg := NewRegistry()
	c := reg.Counter("hot.counter")
	// Fill the ring past its bound so steady state is overwrite-at-head,
	// not append-with-growth.
	for i := 0; i < 2048; i++ {
		rec.Begin(tr, "span")
		rec.End(tr, "span", 1)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		clock.Advance(1)
		rec.Begin(tr, "span")
		rec.InstantAt(clock.Now(), tr, "point", 1, "")
		rec.InstantAtFunc(clock.Now(), tr, "fmt", 1, nDetail, "", 4, 0, 0)
		rec.End(tr, "span", 1)
		c.Add(2)
	})
	if allocs != 0 {
		t.Fatalf("enabled steady-state path allocates %v per op, want 0", allocs)
	}
}

// BenchmarkDisabledHotPath is the CI guard for the same property, with
// b.ReportAllocs so regressions are visible in benchmark output too.
func BenchmarkDisabledHotPath(b *testing.B) {
	var rec *Recorder
	var reg *Registry
	c := reg.Counter("hot.counter")
	tr := rec.Track("hot")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec.Begin(tr, "span")
		rec.End(tr, "span", 1)
		c.Add(1)
	}
}

// BenchmarkEnabledSpan measures the live-path cost for reference.
func BenchmarkEnabledSpan(b *testing.B) {
	var clock sim.Clock
	rec := NewRing(&clock, 4096)
	tr := rec.Track("hot")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec.Begin(tr, "span")
		rec.End(tr, "span", 1)
	}
}
