package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	var c Clock
	if got := c.Now(); got != 0 {
		t.Fatalf("zero clock Now() = %v, want 0", got)
	}
}

func TestClockAdvance(t *testing.T) {
	var c Clock
	c.Advance(5 * Microsecond)
	c.Advance(3 * Nanosecond)
	if got, want := c.Now(), Time(5003); got != want {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestClockAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	var c Clock
	c.Advance(-1)
}

func TestClockAdvanceToBackwardsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AdvanceTo into the past did not panic")
		}
	}()
	var c Clock
	c.Advance(10)
	c.AdvanceTo(5)
}

func TestDurationConversions(t *testing.T) {
	d := 1500 * Microsecond
	if got := d.Milliseconds(); got != 1.5 {
		t.Errorf("Milliseconds() = %v, want 1.5", got)
	}
	if got := d.Microseconds(); got != 1500 {
		t.Errorf("Microseconds() = %v, want 1500", got)
	}
	if got := d.Seconds(); got != 0.0015 {
		t.Errorf("Seconds() = %v, want 0.0015", got)
	}
	if got := d.Std(); got != 1500*time.Microsecond {
		t.Errorf("Std() = %v, want 1.5ms", got)
	}
	if got := DurationOf(2 * time.Second); got != 2*Second {
		t.Errorf("DurationOf(2s) = %v, want %v", got, 2*Second)
	}
}

func TestTimeAddSub(t *testing.T) {
	t0 := Time(100)
	t1 := t0.Add(50)
	if t1 != 150 {
		t.Fatalf("Add = %v, want 150", t1)
	}
	if d := t1.Sub(t0); d != 50 {
		t.Fatalf("Sub = %v, want 50", d)
	}
}

func TestEngineFiresInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	if n := e.Run(); n != 3 {
		t.Fatalf("Run fired %d events, want 3", n)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("fire order = %v, want [1 2 3]", order)
	}
	if e.Now() != 30 {
		t.Fatalf("Now() = %v, want 30", e.Now())
	}
}

func TestEngineSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of schedule order: %v", order)
		}
	}
}

func TestEngineEventSchedulesEvent(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.Schedule(10, func() {
		fired = append(fired, e.Now())
		e.Schedule(5, func() { fired = append(fired, e.Now()) })
	})
	e.Run()
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
		t.Fatalf("fired = %v, want [10 15]", fired)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(10, func() { fired = true })
	e.Cancel(ev)
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Fatal("Cancelled() = false after Cancel")
	}
	// Double-cancel and nil-cancel are no-ops.
	e.Cancel(ev)
	e.Cancel(nil)
}

func TestEngineCancelMiddleOfHeap(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(10, func() { order = append(order, 1) })
	ev := e.Schedule(20, func() { order = append(order, 2) })
	e.Schedule(30, func() { order = append(order, 3) })
	e.Cancel(ev)
	e.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 3 {
		t.Fatalf("order = %v, want [1 3]", order)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, d := range []Duration{5, 15, 25} {
		e.Schedule(d, func() { fired = append(fired, e.Now()) })
	}
	n := e.RunUntil(20)
	if n != 2 {
		t.Fatalf("RunUntil fired %d, want 2", n)
	}
	if e.Now() != 20 {
		t.Fatalf("Now() = %v, want 20", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", e.Pending())
	}
	// RunUntil past the drain point advances the clock to the deadline.
	e.RunUntil(100)
	if e.Now() != 100 || e.Pending() != 0 {
		t.Fatalf("Now()=%v Pending()=%d, want 100, 0", e.Now(), e.Pending())
	}
}

func TestEngineScheduleNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule(-1) did not panic")
		}
	}()
	NewEngine().Schedule(-1, func() {})
}

func TestEngineScheduleAtPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleAt in the past did not panic")
		}
	}()
	e.ScheduleAt(5, func() {})
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed streams diverged")
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical values", same)
	}
}

func TestRNGForkIndependence(t *testing.T) {
	r := NewRNG(7)
	a := r.Fork(1)
	b := r.Fork(2)
	if a.Uint64() == b.Uint64() {
		t.Fatal("forks with different labels produced the same first value")
	}
	// Fork is a pure function of (state, label): forking again with the same
	// label from an untouched parent yields the same stream.
	a1 := NewRNG(7).Fork(1)
	a2 := NewRNG(7).Fork(1)
	for i := 0; i < 100; i++ {
		if a1.Uint64() != a2.Uint64() {
			t.Fatal("Fork is not deterministic")
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(4)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) covered %d values of 10 in 1000 draws", len(seen))
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(0).Intn(0)
}

func TestRNGNormFloat64Moments(t *testing.T) {
	r := NewRNG(5)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if mean < -0.02 || mean > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if variance < 0.95 || variance > 1.05 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestRNGNoisePositive(t *testing.T) {
	r := NewRNG(6)
	for i := 0; i < 10000; i++ {
		if f := r.Noise(0.5); f <= 0 {
			t.Fatalf("Noise returned non-positive factor %v", f)
		}
	}
}

func TestRNGNoiseSpread(t *testing.T) {
	r := NewRNG(8)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Noise(0.01)
	}
	mean := sum / n
	if mean < 0.995 || mean > 1.005 {
		t.Errorf("Noise(0.01) mean = %v, want ~1", mean)
	}
}

// Property: for any batch of non-negative delays, the engine fires exactly
// len(delays) events, in non-decreasing time order, ending with the clock at
// the maximum delay.
func TestEngineOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		e := NewEngine()
		var fired []Time
		var max Duration
		for _, r := range raw {
			d := Duration(r)
			if d > max {
				max = d
			}
			e.Schedule(d, func() { fired = append(fired, e.Now()) })
		}
		if n := e.Run(); n != len(raw) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		if len(raw) > 0 && e.Now() != Time(max) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Intn(n) is always within range for positive n.
func TestRNGIntnProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		m := int(n%100) + 1
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(m)
			if v < 0 || v >= m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
