package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced driver call into a layer's public function.
type span struct {
	name, layer string
	// start and end are offsets from the tracer's origin; end is -1
	// while the span is open.
	start, end time.Duration
	// parent is the index of the enclosing span, -1 for a root; track
	// separates concurrent callers (serve connections) in the export.
	parent, track int
	// run identifies the traced pass that recorded the span.
	run int
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// inert: begin returns -1 and end ignores it, so untraced passes run the
// same code. It is safe for concurrent use.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	run    int
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under parent on track and returns its index.
func (t *tracer) begin(parent, track int, layer, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, layer: layer, start: now, end: -1,
		parent: parent, track: track, run: t.run})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[i].end = now
	t.mu.Unlock()
}

// layerTime is one layer's traced totals.
type layerTime struct {
	layer       string
	spans       int
	total, self time.Duration
}

// selfTimes sums each layer's spans and their self time: a span's
// duration minus the part of its interval its children cover.
func selfTimes(spans []span) []layerTime {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	by := map[string]*layerTime{}
	for i, s := range spans {
		if s.end < 0 {
			continue
		}
		lt := by[s.layer]
		if lt == nil {
			lt = &layerTime{layer: s.layer}
			by[s.layer] = lt
		}
		d := s.end - s.start
		lt.spans++
		lt.total += d
		lt.self += d - covered(spans, kids[i])
	}
	out := make([]layerTime, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// covered is the length of the union of the given spans' intervals.
func covered(spans []span, idx []int) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, i := range idx {
		if spans[i].end >= 0 {
			ivs = append(ivs, iv{spans[i].start, spans[i].end})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, hi time.Duration
	started := false
	for _, v := range ivs {
		switch {
		case !started || v.a > hi:
			sum += v.b - v.a
			hi, started = v.b, true
		case v.b > hi:
			sum += v.b - hi
			hi = v.b
		}
	}
	return sum
}

// writeChrome exports the spans as Chrome trace-event JSON: one complete
// ("X") event per span, its layer as the category, and the run id and
// parent index as arguments.
func writeChrome(w io.Writer, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		if s.end < 0 {
			continue
		}
		events = append(events, event{Name: s.name, Cat: s.layer, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: s.run, Tid: s.track, Args: map[string]int{"run": s.run, "parent": s.parent}})
	}
	bw := bufio.NewWriter(w)
	if err := json.NewEncoder(bw).Encode(map[string]any{"traceEvents": events}); err != nil {
		return err
	}
	return bw.Flush()
}

// saveTrace writes the spans once, at the end of the run, under buildDir.
func saveTrace(e *env, spans []span) (string, error) {
	path := filepath.Join(buildDir, fmt.Sprintf("trace-%s-seed%d.json", e.workload, e.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := writeChrome(f, spans); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
