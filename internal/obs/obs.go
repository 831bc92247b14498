// Package obs is the deterministic observability substrate shared by every
// model in this repository: hierarchical spans stamped with virtual sim
// time, named counters, and exporters (a Chrome trace-event JSON file
// loadable in Perfetto, and the per-phase cycle-attribution tables behind
// `pentiumbench metrics`).
//
// Two properties govern the design (DESIGN.md §9):
//
//   - Zero cost when off. The disabled state is a nil *Recorder (and a nil
//     *Counter handle); every method is a nil-receiver no-op that performs
//     no allocation, so instrumented hot paths cost one predictable branch.
//     TestDisabledPathZeroAllocs holds this with testing.AllocsPerRun.
//
//   - Determinism. Events are stamped with virtual time from the model's
//     sim.Clock (or an explicit time for clockless models), never the wall
//     clock, and parallel harness runs keep one Recorder and one Registry
//     per run, collected in deterministic task order afterwards — so traces
//     and metric snapshots are bit-identical at every worker count. No
//     snapshot holds a wall-clock value.
package obs

import (
	"fmt"

	"repro/internal/sim"
)

// TrackID identifies one timeline within a Recorder: a simulated process,
// or a subsystem ("kernel", "fs", "disk", "tcp"). Track 0 always exists
// and is the recorder's default timeline.
type TrackID int32

// EventKind distinguishes span boundaries from point events.
type EventKind uint8

const (
	// EvBegin opens a span on a track. Spans nest per track: a Begin
	// inside an open span is a child in the Chrome trace view.
	EvBegin EventKind = iota
	// EvEnd closes the most recently opened span on the track.
	EvEnd
	// EvInstant is a point event.
	EvInstant
)

// String names the kind for debugging.
func (k EventKind) String() string {
	switch k {
	case EvBegin:
		return "begin"
	case EvEnd:
		return "end"
	case EvInstant:
		return "instant"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one recorded trace event.
type Event struct {
	// When is the virtual time of the event.
	When sim.Time
	// Track is the timeline the event belongs to.
	Track TrackID
	// Kind says whether this begins a span, ends one, or is an instant.
	Kind EventKind
	// Name is the span or event name (a constant string on hot paths).
	Name string
	// PID is the simulated process involved, when any (0 otherwise).
	PID int
	// Cost carries an attributed cost for the event (virtual nanoseconds
	// or cycles, by the emitter's convention); 0 when unused.
	Cost float64
	// Detail is a human-readable annotation. An instant recorded with
	// InstantAtFunc gets it formatted when Events or Capture reads the
	// event back, so only the events a ring still holds are formatted.
	Detail string
}

// A DetailFunc formats an instant's detail from the string and the
// integers recorded with it (see InstantAtFunc).
type DetailFunc func(s string, a, b, c int64) string

// slot is one buffered event. A deferred instant keeps its DetailFunc
// and integer values here, and its string value in Event.Detail, until
// event formats them.
type slot struct {
	Event
	format DetailFunc
	args   [3]int64
}

// event returns the buffered event with its detail formatted.
func (s *slot) event() Event {
	e := s.Event
	if s.format != nil {
		e.Detail = s.format(e.Detail, s.args[0], s.args[1], s.args[2])
	}
	return e
}

// chunkLen is the number of slots a recorder allocates at a time. The
// buffer grows a chunk at a time and is never copied, so a recorder
// holds only the chunks it has filled: a short run never pays for its
// ring's whole limit, and a full ring leaves no outgrown arrays behind.
const chunkLen = 256

// Recorder collects events for one single-threaded model run. A nil
// *Recorder is the disabled state: every method no-ops without
// allocating. Recorder is not safe for concurrent use — parallel harness
// code gives each task its own Recorder and merges afterwards.
type Recorder struct {
	clock  *sim.Clock
	tracks []string
	// trackIDs indexes tracks by name, so registering a track is O(1)
	// however many exist (exemplar tracing registers thousands).
	trackIDs map[string]TrackID
	chunks   []*[chunkLen]slot
	// n is the number of buffered events, at positions [0, n).
	n int
	// limit > 0 bounds the buffer as a ring over the most recent events
	// (head marks the oldest); 0 keeps everything.
	limit int
	head  int
	// dropped counts events overwritten by the ring bound, so consumers
	// can tell a truncated capture from a complete one.
	dropped int
}

// NewRecorder returns an unbounded recorder stamping events from clock.
// A nil clock is allowed when every event supplies an explicit time via
// the ...At variants.
func NewRecorder(clock *sim.Clock) *Recorder {
	return &Recorder{clock: clock, tracks: []string{"main"}, trackIDs: map[string]TrackID{"main": 0}}
}

// NewRing returns a recorder that keeps only the most recent limit
// events, dropping the oldest first — the observed benchmark probes'
// bounded traces ride on this.
func NewRing(clock *sim.Clock, limit int) *Recorder {
	if limit <= 0 {
		panic("obs: ring limit must be positive")
	}
	r := NewRecorder(clock)
	r.limit = limit
	return r
}

// Enabled reports whether the recorder is live. It is the idiomatic guard
// for instrumentation whose argument preparation itself costs something
// (track lookups, boxing): `if rec.Enabled() { rec.BeginAt(...) }`. A
// formatted detail needs no guard: InstantAtFunc defers the formatting.
func (r *Recorder) Enabled() bool { return r != nil }

// Track registers (or finds) a named timeline and returns its ID. On a
// nil recorder it returns 0, which every emitting method ignores.
func (r *Recorder) Track(name string) TrackID {
	if r == nil {
		return 0
	}
	if id, ok := r.trackIDs[name]; ok {
		return id
	}
	id := TrackID(len(r.tracks))
	r.tracks = append(r.tracks, name)
	r.trackIDs[name] = id
	return id
}

// Tracks returns the registered track names in registration order.
func (r *Recorder) Tracks() []string {
	if r == nil {
		return nil
	}
	out := make([]string, len(r.tracks))
	copy(out, r.tracks)
	return out
}

// now returns the clock time, or 0 without a clock.
func (r *Recorder) now() sim.Time {
	if r.clock == nil {
		return 0
	}
	return r.clock.Now()
}

// at returns the slot at buffer position p.
func (r *Recorder) at(p int) *slot { return &r.chunks[p/chunkLen][p%chunkLen] }

// put writes one event straight into its slot, honouring the ring
// bound: once the ring is full the oldest slot is overwritten in place.
func (r *Recorder) put(when sim.Time, track TrackID, kind EventKind, name string, pid int, cost float64, detail string) *slot {
	p := r.n
	if r.limit > 0 && r.n == r.limit {
		r.dropped++
		p = r.head
		if r.head++; r.head == r.limit {
			r.head = 0
		}
	} else {
		if p == len(r.chunks)*chunkLen {
			r.chunks = append(r.chunks, new([chunkLen]slot))
		}
		r.n++
	}
	s := r.at(p)
	s.When, s.Track, s.Kind, s.Name, s.PID, s.Cost, s.Detail = when, track, kind, name, pid, cost, detail
	s.format = nil
	return s
}

// Begin opens a span on the track at the current virtual time.
func (r *Recorder) Begin(track TrackID, name string) {
	if r == nil {
		return
	}
	r.put(r.now(), track, EvBegin, name, 0, 0, "")
}

// BeginAt opens a span at an explicit virtual time (for models that
// compute elapsed time without advancing a clock, like netstack).
func (r *Recorder) BeginAt(t sim.Time, track TrackID, name string) {
	if r == nil {
		return
	}
	r.put(t, track, EvBegin, name, 0, 0, "")
}

// End closes the most recent open span on the track, attributing cost to
// it (0 for none).
func (r *Recorder) End(track TrackID, name string, cost float64) {
	if r == nil {
		return
	}
	r.put(r.now(), track, EvEnd, name, 0, cost, "")
}

// EndAt closes a span at an explicit virtual time.
func (r *Recorder) EndAt(t sim.Time, track TrackID, name string, cost float64) {
	if r == nil {
		return
	}
	r.put(t, track, EvEnd, name, 0, cost, "")
}

// InstantAt records a point event at an explicit virtual time.
func (r *Recorder) InstantAt(t sim.Time, track TrackID, name string, pid int, detail string) {
	if r == nil {
		return
	}
	r.put(t, track, EvInstant, name, pid, 0, detail)
}

// InstantAtFunc records a point event at an explicit virtual time whose
// detail is format(s, a, b, c). The recorder keeps format and the values
// and calls it when Events or Capture reads the event back, never for an
// event the ring has overwritten, so a hot path can narrate every event
// without formatting or allocating while it records.
func (r *Recorder) InstantAtFunc(t sim.Time, track TrackID, name string, pid int, format DetailFunc, s string, a, b, c int64) {
	if r == nil {
		return
	}
	sl := r.put(t, track, EvInstant, name, pid, 0, s)
	sl.format, sl.args = format, [3]int64{a, b, c}
}

// Dropped returns the number of events overwritten by the ring bound
// since the recorder was created. A nonzero count means the captured
// stream is the tail of a longer run — profiles and trace summaries
// built from it are truncated, not complete.
func (r *Recorder) Dropped() int {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Events returns the buffered events in record order (oldest first; for a
// ring recorder the oldest surviving event leads), formatting the
// details InstantAtFunc deferred.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, r.n)
	for i := range out {
		// head is nonzero only once the ring is full, when n == limit.
		p := r.head + i
		if p >= r.n {
			p -= r.n
		}
		out[i] = r.at(p).event()
	}
	return out
}

// Process couples one model run's trace with a display name, for export:
// each Process becomes one Chrome trace process (one group of tracks).
type Process struct {
	// Name labels the process in the trace viewer (an OS personality,
	// usually).
	Name string
	// Tracks are the track names, indexed by TrackID.
	Tracks []string
	// Events is the event stream in record order.
	Events []Event
	// Dropped is the number of older events the recorder's ring bound
	// overwrote before the capture: nonzero means Events is a tail.
	Dropped int
}

// Capture snapshots a recorder into an exportable Process.
func (r *Recorder) Capture(name string) Process {
	return Process{Name: name, Tracks: r.Tracks(), Events: r.Events(), Dropped: r.Dropped()}
}
