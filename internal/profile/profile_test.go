package profile

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/osprofile"
	"repro/internal/sim"
)

// buildProcess records a small two-track nest:
//
//	kernel: [outer 0..100ns [inner 20..50ns] ] [solo 200..250ns]
//	fs:     [op 0..30ns]
func buildProcess(name string) obs.Process {
	var clock sim.Clock
	rec := obs.NewRecorder(&clock)
	kern := rec.Track("kernel")
	fsT := rec.Track("fs")
	rec.BeginAt(0, kern, "outer")
	rec.BeginAt(0, fsT, "op")
	rec.BeginAt(20, kern, "inner")
	rec.EndAt(30, fsT, "op", 0)
	rec.EndAt(50, kern, "inner", 0)
	rec.EndAt(100, kern, "outer", 0)
	rec.BeginAt(200, kern, "solo")
	rec.EndAt(250, kern, "solo", 0)
	return rec.Capture(name)
}

func TestFoldNestedSpans(t *testing.T) {
	p := Fold(buildProcess("Linux 1.2.8"))
	want := map[string]int64{
		"Linux 1.2.8;fs;op":              30,
		"Linux 1.2.8;kernel;outer":       70, // 100 - 30 inner
		"Linux 1.2.8;kernel;outer;inner": 30,
		"Linux 1.2.8;kernel;solo":        50,
		"Linux 1.2.8;main":               0, // never appears: track "main" has no spans
	}
	delete(want, "Linux 1.2.8;main")
	got := map[string]int64{}
	for _, s := range p.Samples() {
		got[strings.Join(s.Stack, ";")] = s.SelfNs
	}
	if len(got) != len(want) {
		t.Fatalf("samples = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %d, want %d", k, got[k], v)
		}
	}
	if p.Truncated() != 0 || p.DroppedEvents() != 0 {
		t.Errorf("clean stream reported truncated=%d dropped=%d", p.Truncated(), p.DroppedEvents())
	}
}

func TestFoldTrackTotalsExact(t *testing.T) {
	p := Fold(buildProcess("X"))
	totals := p.TrackTotals()
	wantTotals := map[string]int64{"fs": 30, "kernel": 150} // 100 + 50 root spans
	if len(totals) != len(wantTotals) {
		t.Fatalf("totals = %+v", totals)
	}
	for _, tt := range totals {
		if tt.Process != "X" {
			t.Errorf("total process = %q", tt.Process)
		}
		if wantTotals[tt.Track] != tt.TotalNs {
			t.Errorf("track %s total = %d, want %d", tt.Track, tt.TotalNs, wantTotals[tt.Track])
		}
	}
	// The acceptance identity: per-track folded self weights sum exactly
	// to the track total.
	perTrack := map[string]int64{}
	for _, s := range p.Samples() {
		perTrack[s.Stack[1]] += s.SelfNs
	}
	for track, want := range wantTotals {
		if perTrack[track] != want {
			t.Errorf("track %s folded sum = %d, want %d", track, perTrack[track], want)
		}
	}
	if p.TotalNs() != 180 {
		t.Errorf("TotalNs = %d, want 180", p.TotalNs())
	}
}

func TestFoldOrphanEnd(t *testing.T) {
	// An End whose Begin was ring-dropped must not fold, only count.
	proc := obs.Process{
		Name:   "P",
		Tracks: []string{"main"},
		Events: []obs.Event{
			{When: 10, Kind: obs.EvEnd, Name: "lost"},
			{When: 10, Kind: obs.EvBegin, Name: "kept"},
			{When: 30, Kind: obs.EvEnd, Name: "kept"},
		},
		Dropped: 7,
	}
	p := Fold(proc)
	if p.Truncated() != 1 {
		t.Errorf("Truncated = %d, want 1", p.Truncated())
	}
	if p.DroppedEvents() != 7 {
		t.Errorf("DroppedEvents = %d, want 7", p.DroppedEvents())
	}
	samples := p.Samples()
	if len(samples) != 1 || samples[0].SelfNs != 20 {
		t.Fatalf("samples = %+v", samples)
	}
}

func TestFoldUnclosedSpanClosesAtStreamEnd(t *testing.T) {
	proc := obs.Process{
		Name:   "P",
		Tracks: []string{"main"},
		Events: []obs.Event{
			{When: 0, Kind: obs.EvBegin, Name: "open"},
			{When: 40, Kind: obs.EvInstant, Name: "tick"},
		},
	}
	p := Fold(proc)
	if p.Truncated() != 1 {
		t.Errorf("Truncated = %d, want 1", p.Truncated())
	}
	samples := p.Samples()
	if len(samples) != 1 || samples[0].SelfNs != 40 {
		t.Fatalf("unclosed span should close at last event time: %+v", samples)
	}
	totals := p.TrackTotals()
	if len(totals) != 1 || totals[0].TotalNs != 40 {
		t.Fatalf("totals = %+v", totals)
	}
}

func TestMergeOrderIndependent(t *testing.T) {
	a := buildProcess("A")
	b := buildProcess("B")
	p1 := Fold(a, b)
	p2 := Fold(b, a)
	if p1.FoldedString() != p2.FoldedString() {
		t.Fatal("fold order changed folded bytes")
	}
	m := New()
	m.Merge(Fold(a))
	m.Merge(Fold(b))
	if m.FoldedString() != p1.FoldedString() {
		t.Fatal("merge of per-process folds differs from joint fold")
	}
	if m.TotalNs() != 2*Fold(a).TotalNs() {
		t.Fatal("merge did not add weights")
	}
}

func TestFoldedFormat(t *testing.T) {
	out := Fold(buildProcess("Linux 1.2.8")).FoldedString()
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("folded output:\n%s", out)
	}
	// Sorted lexicographically, "frame frame weight" shape.
	for i := 1; i < len(lines); i++ {
		if lines[i-1] >= lines[i] {
			t.Errorf("folded lines not sorted: %q >= %q", lines[i-1], lines[i])
		}
	}
	if lines[0] != "Linux 1.2.8;fs;op 30" {
		t.Errorf("first folded line = %q", lines[0])
	}
}

func TestWriteTopTables(t *testing.T) {
	var b strings.Builder
	if err := Fold(buildProcess("Linux 1.2.8")).WriteTop(&b, 0); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"Linux 1.2.8 — fs: 30ns over 1 spans",
		"Linux 1.2.8 — kernel: 150ns over 3 spans",
		"flat", "cum", "frame", "outer", "inner", "solo",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("top output missing %q:\n%s", want, out)
		}
	}
	// outer: flat 70, cum 100 (includes inner); ranked above inner/solo.
	kernelSection := out[strings.Index(out, "kernel"):]
	if strings.Index(kernelSection, "outer") > strings.Index(kernelSection, "inner") {
		t.Errorf("outer (flat 70) should rank above inner (flat 30):\n%s", out)
	}
}

func TestWriteTopTruncatesRows(t *testing.T) {
	var b strings.Builder
	if err := Fold(buildProcess("X")).WriteTop(&b, 1); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "more frames") {
		t.Fatalf("-top 1 should note the cut:\n%s", out)
	}
}

func TestWriteTopReportsTruncation(t *testing.T) {
	proc := obs.Process{
		Name:    "P",
		Tracks:  []string{"main"},
		Events:  []obs.Event{{When: 5, Kind: obs.EvEnd, Name: "lost"}},
		Dropped: 123,
	}
	var b strings.Builder
	if err := Fold(proc).WriteTop(&b, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "123 events ring-dropped") {
		t.Fatalf("truncation not surfaced:\n%s", b.String())
	}
}

// TestFoldRealObservedRun holds the acceptance identity on a real model
// capture: folding the Figure 1 context-switch probe's span stream
// yields per-track weights summing exactly to the stream's root-span
// coverage, computed independently here.
func TestFoldRealObservedRun(t *testing.T) {
	for _, prof := range osprofile.Paper() {
		_, o := bench.CtxSampled(bench.PaperPlatform(), prof, 8, bench.CtxRing, nil)
		p := Fold(o.Process)

		// Independent per-track root-span coverage from the raw events.
		type st struct {
			depth int
			start int64
			total int64
			last  int64
		}
		states := map[obs.TrackID]*st{}
		orphanDepth := map[obs.TrackID]int{}
		for _, e := range o.Process.Events {
			s := states[e.Track]
			if s == nil {
				s = &st{}
				states[e.Track] = s
			}
			s.last = int64(e.When)
			switch e.Kind {
			case obs.EvBegin:
				if s.depth == 0 {
					s.start = int64(e.When)
				}
				s.depth++
			case obs.EvEnd:
				if s.depth == 0 {
					orphanDepth[e.Track]++
					continue
				}
				s.depth--
				if s.depth == 0 {
					s.total += int64(e.When) - s.start
				}
			}
		}
		for _, s := range states {
			if s.depth > 0 { // force-closed at stream end, like the fold
				s.total += s.last - s.start
			}
		}

		perTrack := map[string]int64{}
		for _, s := range p.Samples() {
			perTrack[s.Stack[1]] += s.SelfNs
		}
		for _, tt := range p.TrackTotals() {
			if perTrack[tt.Track] != tt.TotalNs {
				t.Errorf("%s/%s: folded sum %d != track total %d",
					prof, tt.Track, perTrack[tt.Track], tt.TotalNs)
			}
		}
		for id, s := range states {
			name := o.Process.Tracks[id]
			if s.total == 0 {
				continue
			}
			if perTrack[name] != s.total {
				t.Errorf("%s/%s: folded sum %d != independent coverage %d",
					prof, name, perTrack[name], s.total)
			}
		}
		if int64(o.Process.Dropped) != p.DroppedEvents() {
			t.Errorf("%s: dropped mismatch", prof)
		}
	}
}

// TestFoldDeterministicBytes pins all three export formats as pure
// functions of the capture.
func TestFoldDeterministicBytes(t *testing.T) {
	render := func() (string, string, string) {
		_, o := bench.CrtdelSampled(bench.PaperPlatform(), osprofile.Paper()[1], 64<<10, 1, fault.Injectors{}, nil)
		p := Fold(o.Process)
		var folded, top, pb strings.Builder
		if err := p.WriteFolded(&folded); err != nil {
			t.Fatal(err)
		}
		if err := p.WriteTop(&top, 5); err != nil {
			t.Fatal(err)
		}
		if err := p.WritePprof(&pb); err != nil {
			t.Fatal(err)
		}
		return folded.String(), top.String(), pb.String()
	}
	f1, t1, p1 := render()
	f2, t2, p2 := render()
	if f1 != f2 || t1 != t2 || p1 != p2 {
		t.Fatal("profile exports are not byte-identical across identical runs")
	}
	if len(f1) == 0 || len(t1) == 0 || len(p1) == 0 {
		t.Fatal("profile exports are empty")
	}
}

// TestFoldDroppedRootSpanReportsTruncatedCoverage is the audit locked in
// by a hand-built stream: the ring dropped a root span's Begin, so its
// surviving children fold as partial coverage and the track total must
// say so — truncated, never inflated.
func TestFoldDroppedRootSpanReportsTruncatedCoverage(t *testing.T) {
	// Original timeline: root[0..100] { a[10..40], b[60..90] }. The ring
	// dropped Begin(root) at t=0 and the whole of a; what survives is
	// b's pair and root's orphan End.
	proc := obs.Process{
		Name:   "P",
		Tracks: []string{"kernel"},
		Events: []obs.Event{
			{When: 60, Kind: obs.EvBegin, Name: "b"},
			{When: 90, Kind: obs.EvEnd, Name: "b"},
			{When: 100, Kind: obs.EvEnd, Name: "root"},
		},
		Dropped: 3,
	}
	p := Fold(proc)
	totals := p.TrackTotals()
	if len(totals) != 1 {
		t.Fatalf("totals = %+v", totals)
	}
	tt := totals[0]
	// Only b's 30ns is attributable; attributing root's 100ns from its
	// orphan End would inflate the total with time the stream cannot
	// place.
	if tt.TotalNs != 30 {
		t.Errorf("TotalNs = %d, want 30 (partial coverage, not inflated)", tt.TotalNs)
	}
	if tt.Truncated != 1 {
		t.Errorf("TrackTotal.Truncated = %d, want 1", tt.Truncated)
	}
	if p.Truncated() != 1 {
		t.Errorf("Truncated = %d, want 1", p.Truncated())
	}
}

// TestFoldMismatchedEndDoesNotStealOpenSpan hardens closeTop: an End
// naming a span that is not on top of the stack (its Begin was dropped
// mid-nest) must not close — and mis-attribute — the open span.
func TestFoldMismatchedEndDoesNotStealOpenSpan(t *testing.T) {
	proc := obs.Process{
		Name:   "P",
		Tracks: []string{"kernel"},
		Events: []obs.Event{
			{When: 0, Kind: obs.EvBegin, Name: "outer"},
			{When: 20, Kind: obs.EvEnd, Name: "dropped-child"},
			{When: 50, Kind: obs.EvEnd, Name: "outer"},
		},
	}
	p := Fold(proc)
	samples := p.Samples()
	if len(samples) != 1 || samples[0].Stack[len(samples[0].Stack)-1] != "outer" || samples[0].SelfNs != 50 {
		t.Fatalf("outer must survive the mismatched End and fold [0..50]: %+v", samples)
	}
	totals := p.TrackTotals()
	if len(totals) != 1 || totals[0].TotalNs != 50 || totals[0].Truncated != 1 {
		t.Fatalf("totals = %+v, want TotalNs 50 with Truncated 1", totals)
	}
}

// TestMergePropagatesTrackTruncation checks per-track truncation counts
// survive a merge.
func TestMergePropagatesTrackTruncation(t *testing.T) {
	orphan := obs.Process{
		Name:   "P",
		Tracks: []string{"kernel"},
		Events: []obs.Event{{When: 10, Kind: obs.EvEnd, Name: "lost"}},
	}
	a, b := Fold(orphan), Fold(orphan)
	m := New()
	m.Merge(a)
	m.Merge(b)
	totals := m.TrackTotals()
	if len(totals) != 1 || totals[0].Truncated != 2 {
		t.Fatalf("merged totals = %+v, want one track with Truncated 2", totals)
	}
	if m.Truncated() != 2 {
		t.Errorf("merged Truncated = %d, want 2", m.Truncated())
	}
}
