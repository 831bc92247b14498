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
// The firing event stays at the root while its callback runs: the first
// event the callback schedules replaces it with one sift-down, not a pop
// and a push, and a callback that schedules none has it popped.
//
// The zero value is ready to use.
type Queue struct {
	clock  Clock
	seq    uint64
	heap   []event
	firing bool // heap[0] is the running callback's event, no longer pending
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

// Len returns the number of events waiting to fire; inside a callback,
// the firing event is not one of them.
func (q *Queue) Len() int {
	if q.firing {
		return len(q.heap) - 1
	}
	return len(q.heap)
}

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
	if q.firing {
		q.firing = false
		siftDown(q.heap, e)
		return
	}
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

// siftDown puts e at the root of h, a heap below its root, and sinks it.
func siftDown(h []event, e event) {
	n, i := len(h), 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&e) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
}

// dropFiring removes the firing event if no schedule has replaced it.
func (q *Queue) dropFiring() {
	if !q.firing {
		return
	}
	q.firing = false
	n := len(q.heap) - 1
	last := q.heap[n]
	q.heap[n] = event{} // release the callback for the collector
	q.heap = q.heap[:n]
	if n > 0 {
		siftDown(q.heap, last)
	}
}

// Step fires the earliest pending event, advancing the clock to its
// time. It reports whether an event was fired. Called from a callback,
// it first drops that callback's own event.
func (q *Queue) Step() bool {
	q.dropFiring()
	if len(q.heap) == 0 {
		return false
	}
	top := &q.heap[0]
	q.clock.AdvanceTo(top.when)
	q.firing = true
	top.fire()
	q.dropFiring()
	return true
}
