package obs

import (
	"encoding/json"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

// mkEx builds a completed exemplar whose phase sum equals its lifetime
// by construction.
func mkEx(id uint64, issue, wire, queue, cpu int64) Exemplar {
	end := issue + wire + queue + cpu
	return Exemplar{
		ID: id, Client: int32(id % 7), Class: "read", Sends: 1, Tier: -1,
		IssueNs: issue, EnqNs: issue + wire, StartNs: issue + wire + queue,
		EndNs: end, WireNs: wire, QueueNs: queue, CPUNs: cpu,
	}
}

func TestExemplarsDisabledZeroAllocs(t *testing.T) {
	var x *Exemplars
	e := mkEx(1, 0, 10, 20, 30)
	allocs := testing.AllocsPerRun(1000, func() {
		x.Offer(e)
	})
	if allocs != 0 {
		t.Fatalf("disabled Offer allocates %v/op, want 0", allocs)
	}
	if x.Dropped() != 0 || x.Snapshot() != nil {
		t.Fatal("nil reservoir must report zero state")
	}
}

func TestExemplarsPerWindowBoundAndDeterminism(t *testing.T) {
	const k, width = 4, 1000
	build := func() *Exemplars {
		x := NewExemplars(42, k, width)
		// 3 windows × 50 offers each, latencies spread over two octaves.
		for w := int64(0); w < 3; w++ {
			for i := int64(0); i < 50; i++ {
				id := uint64(w*50 + i + 1)
				x.Offer(mkEx(id, w*width+i, 100+i*37, 5, 10))
			}
		}
		return x
	}
	a, b := build(), build()
	aj, _ := json.Marshal(a.Snapshot())
	bj, _ := json.Marshal(b.Snapshot())
	if string(aj) != string(bj) {
		t.Fatal("same seed + same offers must select identical exemplars")
	}
	const offered = 150
	var kept int64
	seen := map[int]bool{}
	for _, w := range a.Snapshot() {
		if seen[w.Window] {
			t.Fatalf("duplicate window %d in snapshot", w.Window)
		}
		seen[w.Window] = true
		if len(w.Exemplars) > k {
			t.Fatalf("window %d keeps %d exemplars, want <= %d", w.Window, len(w.Exemplars), k)
		}
		kept += int64(len(w.Exemplars))
		for i, e := range w.Exemplars {
			if e.PhaseSum() != e.LatencyNs {
				t.Fatalf("exemplar %d: phase sum %d != latency %d", e.ID, e.PhaseSum(), e.LatencyNs)
			}
			if e.Bucket != stats.BucketIndex(e.LatencyNs) {
				t.Fatalf("exemplar %d: bucket %d, want %d", e.ID, e.Bucket, stats.BucketIndex(e.LatencyNs))
			}
			if e.Window != w.Window {
				t.Fatalf("exemplar %d filed under window %d, tagged %d", e.ID, w.Window, e.Window)
			}
			if i > 0 && w.Exemplars[i-1].LatencyNs < e.LatencyNs {
				t.Fatal("exemplars not sorted slowest first")
			}
		}
	}
	if a.Dropped() != offered-kept {
		t.Fatalf("dropped = %d, want offered-kept = %d", a.Dropped(), offered-kept)
	}

	// A different seed must (for this population) select a different set.
	c := NewExemplars(43, k, width)
	for w := int64(0); w < 3; w++ {
		for i := int64(0); i < 50; i++ {
			id := uint64(w*50 + i + 1)
			c.Offer(mkEx(id, w*width+i, 100+i*37, 5, 10))
		}
	}
	cj, _ := json.Marshal(c.Snapshot())
	if string(cj) == string(aj) {
		t.Fatal("different seeds selected identical exemplar sets")
	}
}

func TestExemplarsOrderIndependent(t *testing.T) {
	// Selection must be a pure function of the offered set within a
	// window, not of offer order.
	offers := make([]Exemplar, 0, 40)
	for i := int64(0); i < 40; i++ {
		offers = append(offers, mkEx(uint64(i+1), i, 50+i*91%400, 3, 7))
	}
	fwd := NewExemplars(7, 3, 1<<20)
	rev := NewExemplars(7, 3, 1<<20)
	for _, e := range offers {
		fwd.Offer(e)
	}
	for i := len(offers) - 1; i >= 0; i-- {
		rev.Offer(offers[i])
	}
	fj, _ := json.Marshal(fwd.Snapshot())
	rj, _ := json.Marshal(rev.Snapshot())
	if string(fj) != string(rj) {
		t.Fatal("offer order changed the selected exemplar set")
	}
}

func TestExemplarsTailBias(t *testing.T) {
	// With K=8 from 9 fast (1µs) and 1 slow (10ms) request per window,
	// the slow request must essentially always be retained: its weight is
	// 10^4 times any competitor's.
	x := NewExemplars(99, 8, sim.Millisecond*100)
	var slowIDs []uint64
	for w := int64(0); w < 20; w++ {
		base := w * 100 * int64(sim.Millisecond)
		for i := int64(0); i < 9; i++ {
			x.Offer(mkEx(uint64(w*10+i+1), base+i, 500, 200, 300))
		}
		slow := uint64(w*10 + 10)
		slowIDs = append(slowIDs, slow)
		x.Offer(mkEx(slow, base+50, int64(sim.Millisecond)*9, int64(sim.Millisecond), 0))
	}
	snap := x.Snapshot()
	if len(snap) == 0 {
		t.Fatal("no windows retained")
	}
	hits := 0
	for i, w := range snap {
		for _, e := range w.Exemplars {
			if e.ID == slowIDs[i] {
				hits++
			}
		}
	}
	if hits < 18 {
		t.Fatalf("slow request retained in %d/20 windows, want >= 18 (tail bias)", hits)
	}
}

func TestExemplarTracksRendersSpans(t *testing.T) {
	rec := NewRing(new(sim.Clock), 1<<10)
	wins := []ExemplarWindow{{Window: 0, Exemplars: []Exemplar{
		mkEx(5, 100, 10, 20, 30),
		{ID: 9, Class: "write", Shed: true, Sends: 8, Tier: 5,
			IssueNs: 0, EnqNs: -1, StartNs: -1, EndNs: 400,
			WireNs: 300, RTONs: 100, LatencyNs: 400},
	}}}
	ExemplarTracks(rec, wins)
	p := rec.Capture("test")
	var names []string
	for _, tr := range p.Tracks {
		names = append(names, tr)
	}
	found := map[string]bool{}
	for _, n := range names {
		found[n] = true
	}
	if !found["req 5"] || !found["req 9"] {
		t.Fatalf("per-request tracks missing: %v", names)
	}
	var spans, instants int
	for _, e := range p.Events {
		switch e.Kind {
		case EvBegin:
			spans++
		case EvInstant:
			instants++
		}
	}
	if spans < 4 {
		t.Fatalf("%d spans rendered, want >= 4 (net/queue/cpu/reply)", spans)
	}
	if instants != 1 {
		t.Fatalf("%d instants, want 1 shed marker", instants)
	}
	// Nil recorder is inert.
	ExemplarTracks(nil, wins)
}

// BenchmarkExemplarsOffer is the exemplar reservoir's write: one finished
// request offered per op at advancing virtual time, 64 to each window of
// a K=4 reservoir, so most offers take the eviction scan (enabled), or
// to a nil reservoir (disabled).
func BenchmarkExemplarsOffer(b *testing.B) {
	for _, enabled := range []bool{false, true} {
		b.Run(benchState(enabled), func(b *testing.B) {
			var x *Exemplars
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%benchLap == 0 && enabled {
					x = NewExemplars(1, 4, benchWidth)
				}
				x.Offer(mkEx(uint64(i+1), int64(benchTime(i)), 1000, int64(i&63)*10_000, 50_000))
			}
		})
	}
}
