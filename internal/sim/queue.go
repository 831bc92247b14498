package sim

import "fmt"

// Queue is the discrete-event engine: a virtual clock plus a binary
// min-heap of pending callbacks. Events fire in (When, schedule order) —
// strictly increasing time, FIFO within a tick — and the clock lands
// exactly on each fired event's When. The seeded differential test holds
// this contract against a reference engine kept in the tests.
//
// Entries are plain values and Schedule returns no handle, so there is
// nothing to cancel and no handle that could outlive its event. The heap
// slice grows to the most events ever pending at once and is reused from
// then on: a model whose pending set is bounded — nfsserver never holds
// more than one arrival, one timer per nfsd slot and one per retry tier —
// schedules and fires without allocating.
//
// The zero value is ready to use.
type Queue struct {
	clock Clock
	seq   uint64
	heap  []event
}

// event is one pending callback; seq is its schedule ordinal, the
// tie-break that keeps same-tick events in schedule order.
type event struct {
	when Time
	seq  uint64
	fire func()
}

// before reports whether e fires before o.
func (e *event) before(o *event) bool {
	return e.when < o.when || (e.when == o.when && e.seq < o.seq)
}

// Now returns the current virtual time.
func (q *Queue) Now() Time { return q.clock.Now() }

// Clock exposes the queue's clock, for components that stamp or advance
// time directly.
func (q *Queue) Clock() *Clock { return &q.clock }

// Len returns the number of events waiting to fire.
func (q *Queue) Len() int { return len(q.heap) }

// Schedule enqueues fn to run after delay d. A negative delay panics.
func (q *Queue) Schedule(d Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative event delay %v", d))
	}
	q.ScheduleAt(q.clock.Now().Add(d), fn)
}

// ScheduleAt enqueues fn to run at time t. Scheduling in the past panics.
func (q *Queue) ScheduleAt(t Time, fn func()) {
	if t < q.clock.Now() {
		panic(fmt.Sprintf("sim: scheduling event in the past: at %v, asked for %v", q.clock.Now(), t))
	}
	e := event{when: t, seq: q.seq, fire: fn}
	q.seq++
	h := append(q.heap, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	q.heap = h
}

// Step fires the earliest pending event, advancing the clock to its
// time. It reports whether an event was fired.
func (q *Queue) Step() bool {
	h := q.heap
	n := len(h) - 1
	if n < 0 {
		return false
	}
	top, last := h[0], h[n]
	h[n] = event{} // release the callback for the collector
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && h[r].before(&h[c]) {
				c = r
			}
			if !h[c].before(&last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	q.heap = h
	q.clock.AdvanceTo(top.when)
	top.fire()
	return true
}
