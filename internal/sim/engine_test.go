package sim

import (
	"container/heap"
	"fmt"
)

// Engine is the reference discrete-event engine the production Queue is
// certified against: a clock plus a container/heap of pointer events,
// written for obviousness rather than speed. It keeps the full classic
// API (cancellable event handles, RunUntil) so its own tests pin the
// firing contract independently of the Queue.
//
// The zero value is ready to use.
type Engine struct {
	clock Clock
	queue eventHeap
	seq   uint64
}

// Event is a callback scheduled on the reference Engine.
type Event struct {
	// When is the virtual time at which the event fires.
	When Time
	// Fire is the event's action. It runs with the engine clock set to When.
	Fire func()

	seq   uint64 // tie-break: events at the same time fire in schedule order
	index int    // heap index while queued; -1 once fired or cancelled
}

// Cancelled reports whether the event has left its queue, by firing or
// by Cancel.
func (e *Event) Cancelled() bool { return e.index < 0 }

// eventHeap orders events by (When, seq).
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].When != h[j].When {
		return h[i].When < h[j].When
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// NewEngine returns a new engine with its clock at T+0.
func NewEngine() *Engine { return &Engine{} }

// Now returns the engine's current virtual time.
func (e *Engine) Now() Time { return e.clock.Now() }

// Clock exposes the engine's clock.
func (e *Engine) Clock() *Clock { return &e.clock }

// Schedule enqueues fn to run after delay d. It returns the event so the
// caller may cancel it. A negative delay panics.
func (e *Engine) Schedule(d Duration, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative event delay %v", d))
	}
	return e.ScheduleAt(e.clock.Now().Add(d), fn)
}

// ScheduleAt enqueues fn to run at time t. Scheduling in the past panics.
func (e *Engine) ScheduleAt(t Time, fn func()) *Event {
	if t < e.clock.Now() {
		panic(fmt.Sprintf("sim: scheduling event in the past: at %v, asked for %v", e.clock.Now(), t))
	}
	ev := &Event{When: t, Fire: fn, seq: e.seq}
	e.seq++
	heap.Push(&e.queue, ev)
	return ev
}

// Cancel removes a pending event from the queue. Cancelling an event that
// has already fired or been cancelled is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.index < 0 {
		return
	}
	heap.Remove(&e.queue, ev.index)
}

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return len(e.queue) }

// Step fires the earliest pending event, advancing the clock to its time.
// It reports whether an event was fired.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*Event)
	e.clock.AdvanceTo(ev.When)
	ev.Fire()
	return true
}

// Run fires events until the queue is empty and returns the number fired.
func (e *Engine) Run() int {
	n := 0
	for e.Step() {
		n++
	}
	return n
}

// RunUntil fires events with When <= deadline, advancing the clock to at
// most deadline, and returns the number fired. If the queue drains first,
// the clock is still advanced to the deadline.
func (e *Engine) RunUntil(deadline Time) int {
	n := 0
	for len(e.queue) > 0 && e.queue[0].When <= deadline {
		e.Step()
		n++
	}
	if e.clock.Now() < deadline {
		e.clock.AdvanceTo(deadline)
	}
	return n
}
