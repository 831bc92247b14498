// Package profile turns the observability layer's span streams into
// profiles: it folds the hierarchical Begin/End events of obs.Process
// captures into weighted call stacks on the virtual timeline, computes
// flat/cumulative attribution tables per track, and exports the result
// as Brendan Gregg folded-stack text (for flamegraph tooling) and as
// pprof-compatible protobuf (so `go tool pprof` inspects simulated
// kernels the way it inspects real ones).
//
// It is an exact profiler, not a sampling one: every span contributes
// its full virtual duration, weights are integer virtual nanoseconds,
// and per-track weights sum exactly to the track's span-covered time.
// Folding is deterministic — the canonical sample order is the sorted
// stack key, so the same processes produce the same bytes regardless of
// fold or merge order (DESIGN.md §10).
package profile

import (
	"sort"
	"strings"

	"repro/internal/obs"
)

// stackSep joins frames into sample keys and folded-stack lines. Frame
// names in this repository are short identifiers ("syscall", "copy");
// none contain ';'.
const stackSep = ";"

// Sample is one folded call stack and its accumulated weight.
type Sample struct {
	// Stack is the frame path, root first: process, track, then the
	// span nesting ("Linux 1.2.8", "kernel", "syscall", "copy").
	Stack []string
	// Count is the number of span instances folded into this stack.
	Count int64
	// SelfNs is the accumulated self weight — virtual nanoseconds spent
	// in the leaf frame itself, excluding child spans.
	SelfNs int64
}

// TrackTotal is the span-covered time of one (process, track) timeline.
type TrackTotal struct {
	// Process and Track name the timeline.
	Process, Track string
	// TotalNs is the sum of root-span durations on the track — by
	// construction, exactly the sum of the SelfNs of every sample under
	// this track.
	TotalNs int64
	// Spans is the number of spans folded on the track.
	Spans int64
	// Truncated counts this track's folding anomalies: End events whose
	// Begin fell off the ring, mismatched Ends, and spans force-closed
	// at stream end. Nonzero means TotalNs undercounts the track's real
	// span coverage — partial data, never inflated data.
	Truncated int64
}

// Profile is a set of folded samples. The zero value is empty and
// usable; Fold and Merge accumulate into it.
type Profile struct {
	samples map[string]*Sample
	totals  map[string]*TrackTotal
	// truncated counts folding anomalies from ring-truncated streams:
	// End events whose Begin was dropped, plus spans never closed.
	truncated int64
	// dropped accumulates the Dropped counts of folded processes.
	dropped int64
}

// New returns an empty profile.
func New() *Profile {
	return &Profile{
		samples: make(map[string]*Sample),
		totals:  make(map[string]*TrackTotal),
	}
}

// openSpan is one frame on a track's fold stack.
type openSpan struct {
	name    string
	start   int64
	childNs int64 // time covered by already-closed children
}

// Fold folds the span stream of one captured process into the profile.
// Per track it replays the Begin/End nesting: closing a span attributes
// its self time (duration minus child spans) to the full stack path.
// Instants carry no duration and are ignored.
//
// Ring-truncated streams fold deterministically: an End with no open
// span (its Begin was dropped) is counted as truncated and skipped, and
// spans still open at stream end are closed at the stream's last event
// time and counted as truncated.
func (p *Profile) Fold(proc obs.Process) {
	p.dropped += int64(proc.Dropped)
	type trackState struct {
		open []openSpan
		last int64
	}
	states := make(map[obs.TrackID]*trackState)
	trackName := func(id obs.TrackID) string {
		if int(id) >= 0 && int(id) < len(proc.Tracks) {
			return proc.Tracks[id]
		}
		return "?"
	}
	// close pops the top span of a track at time t and attributes it.
	closeTop := func(id obs.TrackID, st *trackState, t int64) {
		top := st.open[len(st.open)-1]
		st.open = st.open[:len(st.open)-1]
		dur := t - top.start
		if dur < 0 {
			dur = 0
		}
		self := dur - top.childNs
		if self < 0 {
			self = 0
		}
		stack := make([]string, 0, len(st.open)+3)
		stack = append(stack, proc.Name, trackName(id))
		for _, o := range st.open {
			stack = append(stack, o.name)
		}
		stack = append(stack, top.name)
		p.add(stack, 1, self)
		tt := p.total(proc.Name, trackName(id))
		tt.Spans++
		if len(st.open) > 0 {
			st.open[len(st.open)-1].childNs += dur
		} else {
			tt.TotalNs += dur
		}
	}
	for _, e := range proc.Events {
		st := states[e.Track]
		if st == nil {
			st = &trackState{}
			states[e.Track] = st
		}
		t := int64(e.When)
		if t > st.last {
			st.last = t
		}
		switch e.Kind {
		case obs.EvBegin:
			st.open = append(st.open, openSpan{name: e.Name, start: t})
		case obs.EvEnd:
			if len(st.open) == 0 {
				// Begin lost to the ring: nothing to attribute. The track
				// total still materializes, carrying the truncation mark,
				// so a track whose every Begin was dropped reports
				// truncated coverage instead of silently vanishing.
				p.markTruncated(proc.Name, trackName(e.Track))
				continue
			}
			if e.Name != "" && st.open[len(st.open)-1].name != e.Name {
				// An End that does not match the open span (its Begin was
				// dropped, or the stream is malformed): attributing the
				// open span's time to it would inflate the wrong frame.
				// Count it and keep the stack as is.
				p.markTruncated(proc.Name, trackName(e.Track))
				continue
			}
			closeTop(e.Track, st, t)
		}
	}
	// Close spans left open at stream end (ring truncation or a capture
	// taken mid-run) at the track's last event time, outermost last.
	ids := make([]obs.TrackID, 0, len(states))
	for id := range states {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		st := states[id]
		for len(st.open) > 0 {
			p.markTruncated(proc.Name, trackName(id))
			closeTop(id, st, st.last)
		}
	}
}

// markTruncated records one folding anomaly, both profile-wide and on
// the owning track's total.
func (p *Profile) markTruncated(process, track string) {
	p.truncated++
	p.total(process, track).Truncated++
}

// add accumulates one stack observation.
func (p *Profile) add(stack []string, count, selfNs int64) {
	if p.samples == nil {
		p.samples = make(map[string]*Sample)
	}
	key := strings.Join(stack, stackSep)
	s := p.samples[key]
	if s == nil {
		s = &Sample{Stack: append([]string(nil), stack...)}
		p.samples[key] = s
	}
	s.Count += count
	s.SelfNs += selfNs
}

// total finds or creates the running total of one (process, track).
func (p *Profile) total(process, track string) *TrackTotal {
	if p.totals == nil {
		p.totals = make(map[string]*TrackTotal)
	}
	key := process + stackSep + track
	tt := p.totals[key]
	if tt == nil {
		tt = &TrackTotal{Process: process, Track: track}
		p.totals[key] = tt
	}
	return tt
}

// Merge folds another profile's samples into this one. Because the
// canonical sample order is the sorted stack key, merge order cannot
// affect any exported bytes.
func (p *Profile) Merge(o *Profile) {
	if o == nil {
		return
	}
	for _, s := range o.sorted() {
		p.add(s.Stack, s.Count, s.SelfNs)
	}
	for _, tt := range o.TrackTotals() {
		dst := p.total(tt.Process, tt.Track)
		dst.TotalNs += tt.TotalNs
		dst.Spans += tt.Spans
		dst.Truncated += tt.Truncated
	}
	p.truncated += o.truncated
	p.dropped += o.dropped
}

// Fold is the one-shot convenience: a new profile over the given
// processes, folded in order.
func Fold(procs ...obs.Process) *Profile {
	p := New()
	for _, proc := range procs {
		p.Fold(proc)
	}
	return p
}

// sorted returns the samples in canonical (lexicographic stack) order:
// the order of their map keys, which are the joined stacks.
func (p *Profile) sorted() []*Sample {
	keys := make([]string, 0, len(p.samples))
	for k := range p.samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*Sample, len(keys))
	for i, k := range keys {
		out[i] = p.samples[k]
	}
	return out
}

// TrackTotals returns the per-track totals sorted by process then track.
func (p *Profile) TrackTotals() []TrackTotal {
	out := make([]TrackTotal, 0, len(p.totals))
	for _, tt := range p.totals {
		out = append(out, *tt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Process != out[j].Process {
			return out[i].Process < out[j].Process
		}
		return out[i].Track < out[j].Track
	})
	return out
}

// TotalNs returns the profile-wide weight: the sum of every sample's
// self time, which equals the sum of every track total.
func (p *Profile) TotalNs() int64 {
	var sum int64
	for _, s := range p.samples {
		sum += s.SelfNs
	}
	return sum
}
