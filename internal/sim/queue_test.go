package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// queue is the API the production Queue offers; refQueue adapts the
// reference Engine to it, so every behavioural test below runs against
// both engines.
type queue interface {
	Now() Time
	Clock() *Clock
	Schedule(d Duration, fn func())
	ScheduleAt(t Time, fn func())
	Step() bool
	Len() int
}

// refQueue drops the reference Engine's event handles.
type refQueue struct{ *Engine }

func (r refQueue) Schedule(d Duration, fn func()) { r.Engine.Schedule(d, fn) }
func (r refQueue) ScheduleAt(t Time, fn func())   { r.Engine.ScheduleAt(t, fn) }
func (r refQueue) Len() int                       { return r.Pending() }

// engines lists the reference ("heap") and the production ("queue")
// engine.
var engines = []struct {
	name string
	mk   func() queue
}{
	{"heap", func() queue { return refQueue{NewEngine()} }},
	{"queue", func() queue { return new(Queue) }},
}

// drain fires events until none remain and returns the number fired.
func drain(q queue) int {
	n := 0
	for q.Step() {
		n++
	}
	return n
}

func TestQueueFiresInTimeOrder(t *testing.T) {
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			q := eng.mk()
			var order []int
			q.Schedule(30, func() { order = append(order, 3) })
			q.Schedule(10, func() { order = append(order, 1) })
			q.Schedule(20, func() { order = append(order, 2) })
			if n := drain(q); n != 3 {
				t.Fatalf("drain fired %d events, want 3", n)
			}
			if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
				t.Fatalf("fire order = %v, want [1 2 3]", order)
			}
			if q.Now() != 30 {
				t.Fatalf("Now() = %v, want 30", q.Now())
			}
		})
	}
}

func TestQueueSameTickFIFO(t *testing.T) {
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			q := eng.mk()
			var order []int
			for i := 0; i < 100; i++ {
				q.Schedule(5, func() { order = append(order, i) })
			}
			drain(q)
			for i, v := range order {
				if v != i {
					t.Fatalf("same-tick events fired out of schedule order: %v", order)
				}
			}
		})
	}
}

func TestQueueEventSchedulesEvent(t *testing.T) {
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			q := eng.mk()
			var fired []Time
			q.Schedule(10, func() {
				fired = append(fired, q.Now())
				q.Schedule(5, func() { fired = append(fired, q.Now()) })
				q.Schedule(0, func() { fired = append(fired, q.Now()) })
			})
			drain(q)
			if len(fired) != 3 || fired[0] != 10 || fired[1] != 10 || fired[2] != 15 {
				t.Fatalf("fired = %v, want [10 10 15]", fired)
			}
		})
	}
}

// The production Queue keeps a firing event at its heap's root until its
// callback schedules: the first event scheduled replaces it, and a
// callback that schedules none pops it. Each row's callback, run by the
// event at 10 with events at 20 and 30 pending, must leave the same
// firing log on both engines.
func TestQueueCallbackSchedules(t *testing.T) {
	for _, tc := range []struct {
		name string
		cb   func(q queue, fire func(string) func())
		want string
	}{
		{"none", func(queue, func(string) func()) {}, "a@10 b@20 c@30"},
		{"one", func(q queue, fire func(string) func()) { q.Schedule(15, fire("d")) },
			"a@10 b@20 d@25 c@30"},
		{"two", func(q queue, fire func(string) func()) {
			q.Schedule(15, fire("d"))
			q.Schedule(5, fire("e"))
		}, "a@10 e@15 b@20 d@25 c@30"},
		{"soonest", func(q queue, fire func(string) func()) { q.Schedule(0, fire("d")) },
			"a@10 d@10 b@20 c@30"},
		{"tie", func(q queue, fire func(string) func()) { q.ScheduleAt(20, fire("d")) },
			"a@10 b@20 d@20 c@30"},
		{"len", func(q queue, fire func(string) func()) {
			before := q.Len()
			q.Schedule(15, fire("d"))
			fire(fmt.Sprintf("len%d→%d", before, q.Len()))()
		}, "a@10 len2→3@10 b@20 d@25 c@30"},
		{"step", func(q queue, fire func(string) func()) {
			q.Step()
			fire("back")()
		}, "a@10 b@20 back@20 c@30"},
		{"step then schedule", func(q queue, fire func(string) func()) {
			q.Step()
			q.Schedule(1, fire("d"))
		}, "a@10 b@20 d@21 c@30"},
		{"schedule then step", func(q queue, fire func(string) func()) {
			q.Schedule(0, fire("d"))
			q.Step()
			fire(fmt.Sprintf("len%d", q.Len()))()
		}, "a@10 d@10 len2@10 b@20 c@30"},
	} {
		for _, eng := range engines {
			t.Run(tc.name+"/"+eng.name, func(t *testing.T) {
				q := eng.mk()
				var log []string
				fire := func(name string) func() {
					return func() { log = append(log, fmt.Sprintf("%s@%d", name, q.Now())) }
				}
				q.ScheduleAt(20, fire("b"))
				q.ScheduleAt(10, func() { fire("a")(); tc.cb(q, fire) })
				q.ScheduleAt(30, fire("c"))
				drain(q)
				if got := strings.Join(log, " "); got != tc.want {
					t.Fatalf("fired %q, want %q", got, tc.want)
				}
				if q.Len() != 0 {
					t.Fatalf("Len() = %d after draining", q.Len())
				}
			})
		}
	}
}

// The production Queue has no event handles and no RunUntil, so the two
// tests below run the reference engine ("heap") alone.

func TestQueueCancelAndReschedule(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		q := NewEngine()
		var order []int
		q.Schedule(10, func() { order = append(order, 1) })
		ev := q.Schedule(20, func() { order = append(order, 2) })
		q.Schedule(30, func() { order = append(order, 3) })
		q.Cancel(ev)
		if !ev.Cancelled() {
			t.Fatal("Cancelled() = false after Cancel")
		}
		q.Cancel(nil) // no-op
		if got := q.Run(); got != 2 {
			t.Fatalf("Run fired %d, want 2", got)
		}
		if len(order) != 2 || order[0] != 1 || order[1] != 3 {
			t.Fatalf("order = %v, want [1 3]", order)
		}
	})
}

func TestQueueRunUntil(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		q := NewEngine()
		var fired []Time
		for _, d := range []Duration{5, 15, 25} {
			q.Schedule(d, func() { fired = append(fired, q.Now()) })
		}
		if n := q.RunUntil(20); n != 2 {
			t.Fatalf("RunUntil fired %d, want 2", n)
		}
		if q.Now() != 20 {
			t.Fatalf("Now() = %v, want 20", q.Now())
		}
		if q.Pending() != 1 {
			t.Fatalf("Pending() = %d, want 1", q.Pending())
		}
		// Scheduling between a stopped-short RunUntil and the next
		// pending event must still fire in time order.
		q.Schedule(2, func() { fired = append(fired, q.Now()) })
		q.RunUntil(100)
		want := []Time{5, 15, 22, 25}
		if len(fired) != 4 {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("fired = %v, want %v", fired, want)
			}
		}
		if q.Now() != 100 || q.Pending() != 0 {
			t.Fatalf("Now()=%v Pending()=%d, want 100, 0", q.Now(), q.Pending())
		}
	})
}

func TestQueueSchedulePanics(t *testing.T) {
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			mustPanic(t, "negative delay", func() { eng.mk().Schedule(-1, func() {}) })
			q := eng.mk()
			q.Schedule(10, func() {})
			drain(q)
			mustPanic(t, "past ScheduleAt", func() { q.ScheduleAt(5, func() {}) })
		})
	}
}

// TestQueueClockSync covers models that advance the shared clock
// directly between schedules.
func TestQueueClockSync(t *testing.T) {
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			q := eng.mk()
			var fired []Time
			q.Schedule(100*Microsecond, func() { fired = append(fired, q.Now()) })
			q.Clock().Advance(10 * Microsecond)
			q.Schedule(5*Microsecond, func() { fired = append(fired, q.Now()) })
			drain(q)
			if len(fired) != 2 || fired[0] != Time(15*Microsecond) || fired[1] != Time(100*Microsecond) {
				t.Fatalf("fired = %v, want [15µs 100µs]", fired)
			}
		})
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

// firedRec is one observed firing for the differential log, with the
// pending count its callback read.
type firedRec struct {
	id      int
	when    Time
	pending int
}

// diffDriver runs an identical randomized workload against one engine.
// Both drivers consume their own identically-seeded RNG; as long as the
// engines agree the decision streams stay aligned, and any divergence
// shows up as differing logs.
type diffDriver struct {
	q    queue
	rng  *rand.Rand
	log  []firedRec
	lens []int // pending count after every top-level operation
	next int
}

func newDiffDriver(q queue, seed int64) *diffDriver {
	return &diffDriver{q: q, rng: rand.New(rand.NewSource(seed))}
}

// delay draws from mixed scales, from same-tick clusters to ~69 virtual
// seconds (2^36 ns), with the powers-of-64 boundaries overrepresented.
func (d *diffDriver) delay() Duration {
	const far = 1 << 36
	switch d.rng.Intn(12) {
	case 0:
		return 0
	case 1:
		return Duration(d.rng.Int63n(4)) // same-tick clusters
	case 2:
		return Duration(d.rng.Int63n(64))
	case 3:
		return 63
	case 4:
		return 64
	case 5:
		return Duration(64 + d.rng.Int63n(4096-64))
	case 6:
		return 4096
	case 7:
		return Duration(4096 + d.rng.Int63n(1<<18))
	case 8:
		return Duration(d.rng.Int63n(1 << 24))
	case 9:
		return Duration(far - 1 - d.rng.Int63n(1<<20))
	case 10:
		return Duration(far + d.rng.Int63n(1<<20))
	default:
		return Duration(d.rng.Int63n(1 << 30))
	}
}

// schedule enqueues one event, through Schedule or ScheduleAt at random;
// a quarter of events schedule another when they fire, and an eighth
// schedule one at the current tick, the soonest an event can fire.
func (d *diffDriver) schedule(depth int) {
	d.scheduleAfter(d.delay(), depth)
}

func (d *diffDriver) scheduleAfter(delay Duration, depth int) {
	id := d.next
	d.next++
	nested := depth < 3 && d.rng.Intn(4) == 0
	soonest := depth < 3 && d.rng.Intn(8) == 0
	fn := func() {
		d.log = append(d.log, firedRec{id: id, when: d.q.Now(), pending: d.q.Len()})
		if soonest {
			d.scheduleAfter(0, depth+1)
		}
		if nested {
			d.schedule(depth + 1)
		}
	}
	if d.rng.Intn(2) == 0 {
		d.q.Schedule(delay, fn)
	} else {
		d.q.ScheduleAt(d.q.Now().Add(delay), fn)
	}
}

func (d *diffDriver) run(ops int) {
	for i := 0; i < ops; i++ {
		switch d.rng.Intn(10) {
		case 0, 1, 2, 3, 4:
			d.schedule(0)
		case 5:
			// An explicit same-tick burst: 2–5 events at one delay.
			delay := d.delay()
			for n := 2 + d.rng.Intn(4); n > 0; n-- {
				d.scheduleAfter(delay, 0)
			}
		case 6, 7:
			d.q.Step()
		default:
			for j := 0; j < 3; j++ {
				d.q.Step()
			}
		}
		d.lens = append(d.lens, d.q.Len())
	}
	drain(d.q)
}

// TestEngineDifferential certifies the production Queue against the
// reference Engine: identical randomized schedule/step workloads must
// produce identical (event, time) firing sequences, identical pending
// counts inside every callback and after every operation, identical
// final clocks, and drain completely.
func TestEngineDifferential(t *testing.T) {
	seeds := 40
	ops := 400
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			ref := newDiffDriver(refQueue{NewEngine()}, seed)
			fast := newDiffDriver(new(Queue), seed)
			ref.run(ops)
			fast.run(ops)
			if len(ref.log) != len(fast.log) {
				t.Fatalf("log lengths differ: reference %d, queue %d", len(ref.log), len(fast.log))
			}
			for i := range ref.log {
				if ref.log[i] != fast.log[i] {
					t.Fatalf("log[%d]: reference %+v, queue %+v", i, ref.log[i], fast.log[i])
				}
			}
			for i := range ref.lens {
				if ref.lens[i] != fast.lens[i] {
					t.Fatalf("pending after op %d: reference %d, queue %d", i, ref.lens[i], fast.lens[i])
				}
			}
			if ref.q.Now() != fast.q.Now() {
				t.Fatalf("final clocks differ: reference %v, queue %v", ref.q.Now(), fast.q.Now())
			}
			if ref.q.Len() != 0 || fast.q.Len() != 0 {
				t.Fatalf("undrained events: reference %d, queue %d", ref.q.Len(), fast.q.Len())
			}
		})
	}
}

// TestQueueSteadyStateZeroAlloc holds the allocation budget for the
// queue's hot path: once the heap slice has grown to the peak pending
// count, a schedule/fire cycle allocates nothing.
func TestQueueSteadyStateZeroAlloc(t *testing.T) {
	q := new(Queue)
	fn := func() {}
	for i := 0; i < 512; i++ {
		q.Schedule(Duration(i%977), fn)
	}
	drain(q)
	if got := testing.AllocsPerRun(200, func() {
		q.Schedule(13, fn)
		q.Schedule(13, fn)
		q.Schedule(4099, fn)
		drain(q)
	}); got != 0 {
		t.Fatalf("steady-state schedule/fire cycle allocates %v objects, want 0", got)
	}
}

// lcg is a tiny deterministic generator for benchmark schedules (no
// rand.Rand allocation or locking in the timed loop).
type lcg uint64

func (l *lcg) next() uint64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint64(*l)
}

// BenchmarkQueueRearm holds 15 timers, as many as nfsserver can (one
// arrival, eight nfsd slots, six retry-ring heads), each re-arming
// itself when it fires, so the queue holds exactly 15 events
// throughout. The re-arm delays are uniform, so a re-armed timer is
// rarely the next to fire and seldom skips the in-place root's
// sift-down, as nfsserver's arrivals under overload do. One op is one
// fired event.
func BenchmarkQueueRearm(b *testing.B) {
	var q Queue
	r := lcg(3)
	fns := make([]func(), 15)
	for i := range fns {
		fns[i] = func() { q.Schedule(Duration(r.next()%(1<<20)), fns[i]) }
		q.Schedule(Duration(r.next()%(1<<20)), fns[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Step()
	}
}

// BenchmarkQueueChurn schedules 512 events at random delays up to ~1 ms,
// then fires them all. One op is one batch.
func BenchmarkQueueChurn(b *testing.B) {
	q := new(Queue)
	fn := func() {}
	r := lcg(1)
	b.ReportAllocs()
	b.ResetTimer()
	const batch = 512
	for i := 0; i < b.N; i++ {
		for j := 0; j < batch; j++ {
			q.Schedule(Duration(r.next()%(1<<20)), fn)
		}
		drain(q)
	}
}

// BenchmarkQueueSameTickBurst schedules 1,024 events for one tick, then
// fires them all. One op is one burst.
func BenchmarkQueueSameTickBurst(b *testing.B) {
	q := new(Queue)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	const burst = 1024
	for i := 0; i < b.N; i++ {
		for j := 0; j < burst; j++ {
			q.Schedule(100, fn)
		}
		drain(q)
	}
}
