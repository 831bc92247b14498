package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

func TestSummaryPicksMedianAndTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		want string
	}{
		{100, "x median 50 ms, p90 90 ms (n=100)"},     // p95 has only 5 beyond
		{1000, "x median 500 ms, p99 990 ms (n=1000)"}, // p99.9 has only 1 beyond
		{20000, "x median 1e+04 ms, p99.9 1.998e+04 ms (n=20000)"},
		{15, "x median 8 ms (n=15)"}, // no percentile has 10 beyond
	} {
		if got := summary("x", "ms", seq(tc.n)); got != tc.want {
			t.Errorf("n=%d: got %q, want %q", tc.n, got, tc.want)
		}
	}
}

// A handler that stalls once must show up in the latency of every
// request queued behind the stall, since open-loop latency is timed from
// each request's due time, not from when it was sent.
func TestDueTimeAccountsForStall(t *testing.T) {
	const stall = 60 * time.Millisecond
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.Header().Set("ETag", `"e"`)
		io.WriteString(w, "body")
	}))
	defer ts.Close()
	s := &server{clients: []*client{newClient(ts.URL)}}
	defer s.close()
	sched := make([]arrival, 20)
	for i := range sched {
		sched[i] = arrival{at: time.Duration(i) * time.Millisecond, ep: "x"}
	}
	cold := map[string]coldBody{"x": {etag: `"e"`, body: []byte("body")}}
	c := newChecker(io.Discard)
	out := drive(s, sched, true, c, cold, nil, -1)
	if _, failed := c.counts(); failed != 0 {
		t.Fatalf("%d replies failed their checks", failed)
	}
	// Request i is due i ms after the first, which stalled for 60 ms, so
	// it cannot be answered before 60-i ms past its due time.
	for i := 1; i < 10; i++ {
		floor := stall - time.Duration(i)*time.Millisecond
		if out[i].lat < floor || out[i].late < floor-5*time.Millisecond {
			t.Errorf("request %d: latency %v, late %v; want both near %v or more", i, out[i].lat, out[i].late, floor)
		}
	}
}

func TestCorruptGoldenDigestCountsAsFailure(t *testing.T) {
	exps := []*core.Experiment{{ID: "T9", Title: "One"}, {ID: "F9", Title: "Two"}}
	out := []byte("T9 — One\n  a\n\nF9 — Two\n  b\n")
	blocks, err := exhibitBlocks(out, exps)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(blocks["T9"]); got != "T9 — One\n  a\n" {
		t.Fatalf("T9 block %q", got)
	}
	gold := map[string]string{"T9": digest(blocks["T9"]), "F9": digest(blocks["F9"])}

	c := newChecker(io.Discard)
	checkRunAll(c, newRefs(gold), out, exps)
	if a, f := c.counts(); a != 3 || f != 0 {
		t.Fatalf("clean golden: %d attempted, %d failed; want 3, 0", a, f)
	}
	gold["F9"] = strings.Repeat("0", 64)
	var named strings.Builder
	c = newChecker(&named)
	checkRunAll(c, newRefs(gold), out, exps)
	if a, f := c.counts(); a != 3 || f != 1 {
		t.Fatalf("corrupted golden: %d attempted, %d failed; want 3, 1", a, f)
	}
	if !strings.Contains(named.String(), "exhibit F9") {
		t.Errorf("failure not named: %q", named.String())
	}
	// Without a golden table the first observation is the reference.
	c = newChecker(io.Discard)
	r := newRefs(nil)
	checkRunAll(c, r, out, exps)
	checkRunAll(c, r, []byte("T9 — One\n  a\n\nF9 — Two\n  changed\n"), exps)
	if _, f := c.counts(); f != 1 {
		t.Errorf("determinism check: %d failed, want 1", f)
	}
}

func TestBenchmarkJSONNames(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, " ") != strings.Join(workloadNames(), " ") {
		t.Errorf("BENCHMARK.json workloads %v, driver runs %v", names, workloadNames())
	}
	// The end-to-end names must be exactly those the driver reports.
	var r record
	want := r.endToEnd(io.Discard, 1)
	if len(b.EndToEnd) != len(want) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, driver reports %d", len(b.EndToEnd), len(want))
	}
	for _, m := range b.EndToEnd {
		if got, ok := want[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): driver reports %+v", m.Name, m.Unit, got)
		}
	}
	for _, n := range append(names, metricNames(b.EndToEnd, b.PerLayer)...) {
		if !valid.MatchString(n) {
			t.Errorf("name %q does not match %s", n, valid)
		}
	}
}

func metricNames(sets ...[]struct{ Name, Unit string }) []string {
	var out []string
	for _, s := range sets {
		for _, m := range s {
			out = append(out, m.Name)
		}
	}
	return out
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{layer: "driver", start: 0, end: 100 * ms, parent: -1},
		{layer: "serve", start: 10 * ms, end: 40 * ms, parent: 0},
		{layer: "serve", start: 30 * ms, end: 50 * ms, parent: 0}, // overlaps the first
		{layer: "core", start: 60 * ms, end: 70 * ms, parent: 0},
	}
	got := map[string]time.Duration{}
	for _, lt := range selfTimes(spans) {
		got[lt.layer] = lt.self
	}
	if got["driver"] != 50*ms || got["serve"] != 50*ms || got["core"] != 10*ms {
		t.Errorf("self times %v", got)
	}
}
