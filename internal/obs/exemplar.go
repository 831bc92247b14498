package obs

// Exemplar request tracing (DESIGN.md §15). Histograms and windowed
// series say *how many* requests were slow; exemplars say *which ones*
// and *why*: a small, deterministic per-window reservoir of fully
// decomposed request lifecycles, biased toward the latency tail, that a
// model offers every finished request to.
//
// Selection is weighted reservoir sampling (Efraimidis–Spirakis A-Res):
// each offered request gets the key ln(u)/w, where w = latency+1 and u
// is derived purely from (reservoir seed, request ID) by a splitmix64
// hash — no RNG state, no dependence on offer order beyond the window a
// request completes in. The K largest keys per window win, so the
// expected sample is proportional to latency (tail-biased) while every
// request keeps a nonzero chance — and reruns of the same model with the
// same seed select byte-identical exemplar sets at any worker count.
//
// The disabled state is a nil *Exemplars: Offer is a nil-receiver no-op
// with zero allocations (the Exemplar argument is a value, so offering
// costs nothing when off). TestExemplarsDisabledZeroAllocs holds this.

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Exemplar is the recorded lifecycle of one sampled request, every
// duration in exact virtual nanoseconds. For a completed request the
// phase sum Wire+RTO+Queue+CPU+DiskWait+Disk equals EndNs−IssueNs (the
// recorded latency) exactly; for a shed request the same identity holds
// with the service phases zero — the per-request form of the model's
// ledger-equals-elapsed conservation law.
type Exemplar struct {
	// ID is the request's arrival ordinal (1-based) — stable across
	// reruns of the same seed.
	ID     uint64 `json:"id"`
	Client int32  `json:"client"`
	Class  string `json:"class"`
	// Shed marks a request the client abandoned (too many sends or a
	// full retry ring) rather than completed.
	Shed bool `json:"shed,omitempty"`
	// Sends counts wire sends; Tier is the deepest backoff tier entered
	// (-1 when the first send succeeded).
	Sends int `json:"sends"`
	Tier  int `json:"tier"`
	// Lifecycle timestamps: client issue, ingress-queue entry (-1 if the
	// request never entered the queue), service start (-1 if never
	// served), and client-perceived end (reply received, or abandonment).
	IssueNs int64 `json:"issue_ns"`
	EnqNs   int64 `json:"enq_ns"`
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
	// Exact phase decomposition.
	WireNs     int64 `json:"wire_ns"`
	RTONs      int64 `json:"rto_ns"`
	QueueNs    int64 `json:"queue_ns"`
	CPUNs      int64 `json:"cpu_ns"`
	DiskWaitNs int64 `json:"disk_wait_ns"`
	DiskNs     int64 `json:"disk_ns"`
	// LatencyNs is EndNs−IssueNs; Bucket is the stats.Histogram bucket
	// index LatencyNs lands in (the attachment point to the latency
	// histogram); Window is the virtual-time window EndNs falls in.
	LatencyNs int64 `json:"latency_ns"`
	Bucket    int   `json:"bucket"`
	Window    int   `json:"window"`
}

// PhaseSum returns the sum of the exemplar's phase durations; it equals
// LatencyNs exactly for every exemplar a correct model offers.
func (e *Exemplar) PhaseSum() int64 {
	return e.WireNs + e.RTONs + e.QueueNs + e.CPUNs + e.DiskWaitNs + e.DiskNs
}

// ExemplarWindow is one window's retained exemplars, slowest first.
type ExemplarWindow struct {
	Window    int        `json:"window"`
	Exemplars []Exemplar `json:"exemplars"`
}

// Exemplars is a seeded per-window reservoir retaining at most K
// exemplars per virtual-time window. A nil *Exemplars is the disabled
// state; Offer then no-ops without allocating. Not safe for concurrent
// use; each single-threaded model run owns its own.
type Exemplars struct {
	seed    uint64
	k       int
	width   int64
	wins    []exWindow
	dropped int64
}

type exWindow struct {
	window int
	keys   []float64
	exs    []Exemplar
}

// NewExemplars returns a reservoir keeping up to k exemplars per window
// of the given width, selected deterministically from the seed. It
// panics on non-positive k or width — programming errors.
func NewExemplars(seed uint64, k int, width sim.Duration) *Exemplars {
	if k <= 0 {
		panic("obs: exemplar reservoir k must be positive")
	}
	if width <= 0 {
		panic("obs: exemplar window width must be positive")
	}
	return &Exemplars{seed: seed, k: k, width: int64(width)}
}

// splitmix64 is the standard splitmix64 finalizer: a high-quality
// stateless mix of one 64-bit value.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// aresKey computes the A-Res selection key ln(u)/w for one request:
// u in (0,1) from the hash of (seed, id), w = latency+1. Keys are
// negative; larger (closer to zero) wins, and heavier weights shrink
// |ln(u)|/w — the tail bias.
func (x *Exemplars) aresKey(id uint64, latency int64) float64 {
	h := splitmix64(x.seed ^ id)
	// 53 high bits → u in (0,1): add 1 before scaling so u is never 0.
	u := (float64(h>>11) + 1) / (1 << 53)
	w := float64(latency + 1)
	if w < 1 {
		w = 1
	}
	return math.Log(u) / w
}

// Offer presents one finished request to the reservoir. The exemplar's
// Window, Bucket, and LatencyNs are derived here from its timestamps, so
// callers fill only the lifecycle fields. Nil receivers no-op.
func (x *Exemplars) Offer(e Exemplar) {
	if x == nil {
		return
	}
	e.LatencyNs = e.EndNs - e.IssueNs
	e.Bucket = stats.BucketIndex(e.LatencyNs)
	e.Window = windowOf(sim.Time(e.EndNs), x.width)
	key := x.aresKey(e.ID, e.LatencyNs)

	w := x.window(e.Window)
	if len(w.exs) < x.k {
		w.keys = append(w.keys, key)
		w.exs = append(w.exs, e)
		return
	}
	// Evict the current minimum key if the newcomer beats it; ties break
	// toward the smaller request ID so selection is a pure function of
	// the offered set.
	min := 0
	for i := 1; i < len(w.keys); i++ {
		if w.keys[i] < w.keys[min] ||
			(w.keys[i] == w.keys[min] && w.exs[i].ID > w.exs[min].ID) {
			min = i
		}
	}
	if key > w.keys[min] || (key == w.keys[min] && e.ID < w.exs[min].ID) {
		w.keys[min] = key
		w.exs[min] = e
	}
	x.dropped++
}

// window finds or appends the bucket for one window index. Completion
// times are nearly monotone, so the scan from the tail is O(1) in
// practice.
func (x *Exemplars) window(n int) *exWindow {
	for i := len(x.wins) - 1; i >= 0; i-- {
		if x.wins[i].window == n {
			return &x.wins[i]
		}
	}
	x.wins = append(x.wins, exWindow{window: n})
	return &x.wins[len(x.wins)-1]
}

// Dropped returns how many offers the K-per-window bound rejected or
// evicted (0 on nil) — the reservoir's capture-fidelity number.
func (x *Exemplars) Dropped() int64 {
	if x == nil {
		return 0
	}
	return x.dropped
}

// Snapshot returns the retained exemplars: windows ascending, exemplars
// within a window slowest first (ties by ID). A nil reservoir yields
// nil. The snapshot is a pure function of the offered set, so its
// rendered bytes are worker-count independent.
func (x *Exemplars) Snapshot() []ExemplarWindow {
	if x == nil || len(x.wins) == 0 {
		return nil
	}
	out := make([]ExemplarWindow, 0, len(x.wins))
	for i := range x.wins {
		w := &x.wins[i]
		exs := append([]Exemplar(nil), w.exs...)
		sort.Slice(exs, func(a, b int) bool {
			if exs[a].LatencyNs != exs[b].LatencyNs {
				return exs[a].LatencyNs > exs[b].LatencyNs
			}
			return exs[a].ID < exs[b].ID
		})
		out = append(out, ExemplarWindow{Window: w.window, Exemplars: exs})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Window < out[b].Window })
	return out
}

// ExemplarTracks renders exemplars as per-request tracks on a recorder:
// each sampled request gets a track "req <id>" carrying its phase spans
// in lifecycle order (net = request wire + backoff, queue, cpu,
// disk.wait, disk, reply), each span's cost the phase duration in
// microseconds. Shed requests get one "net" span to the abandonment
// point plus a "shed" instant. Call after the model run, before
// Capture.
func ExemplarTracks(rec *Recorder, wins []ExemplarWindow) {
	if rec == nil {
		return
	}
	span := func(tr TrackID, name string, from, to int64) {
		if to < from {
			to = from
		}
		rec.BeginAt(sim.Time(from), tr, name)
		rec.EndAt(sim.Time(to), tr, name, float64(to-from)/float64(sim.Microsecond))
	}
	for _, w := range wins {
		for _, e := range w.Exemplars {
			tr := rec.Track(fmt.Sprintf("req %d", e.ID))
			if e.Shed {
				span(tr, "net", e.IssueNs, e.EndNs)
				rec.InstantAt(sim.Time(e.EndNs), tr, "shed", 0,
					fmt.Sprintf("class=%s sends=%d tier=%d", e.Class, e.Sends, e.Tier))
				continue
			}
			span(tr, "net", e.IssueNs, e.EnqNs)
			span(tr, "queue", e.EnqNs, e.StartNs)
			t := e.StartNs + e.CPUNs
			span(tr, "cpu", e.StartNs, t)
			if e.DiskWaitNs > 0 {
				span(tr, "disk.wait", t, t+e.DiskWaitNs)
			}
			t += e.DiskWaitNs
			if e.DiskNs > 0 {
				span(tr, "disk", t, t+e.DiskNs)
			}
			t += e.DiskNs
			span(tr, "reply", t, e.EndNs)
		}
	}
}
