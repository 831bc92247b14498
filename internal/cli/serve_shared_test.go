package cli

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/memo"
	"repro/internal/sim"
)

// sharedRunHandler is a serve handler with no baseline file.
func sharedRunHandler(opts cmdOpts) *serveHandler {
	return newServeHandler(core.DefaultConfig(), core.NewRunner(2), opts,
		func(path string) ([]byte, error) { return nil, fmt.Errorf("no file %s", path) })
}

// ownRun is one id observed alone under one set of options.
type ownRun struct {
	id   string
	opts core.ObserveOpts
}

// ownRuns observes each (id, options) once; an observation is a pure
// function of the two, so every view asking for the same pair shares it.
type ownRuns struct {
	h    *serveHandler
	seen map[ownRun]observed
}

type observed struct {
	runs []*core.Observation
	err  error
}

// perView is a view's data for one id from a run of its own: the id
// observed under the view's options alone, and projected as the CLI
// projects it.
func (o *ownRuns) perView(name, id string) (*viewData, error) {
	v := views[name]
	k := ownRun{id, v.opts(o.h.opts)}
	r, ok := o.seen[k]
	if !ok {
		r.runs, r.err = o.h.runner.ObserveRuns(o.h.cfg, []string{id}, k.opts)
		o.seen[k] = r
	}
	if r.err != nil {
		return nil, r.err
	}
	return v.projectFor(r.runs, o.h.opts)
}

// Every API body comes from the id's shared run, and must equal the
// body of a run of its own (perView), in every format. Checked for every
// view and id of the view's set — L1's audit included — under the
// default flags, with exemplars at a window other than 100 ms (every
// view's reservoir then keeps 50 ms windows), and under a fault plan.
func TestServeSharedRunMatchesPerView(t *testing.T) {
	if testing.Short() {
		t.Skip("observes every id once per view options")
	}
	data, err := os.ReadFile("../../examples/scale-lossy.json")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Load(data)
	if err != nil {
		t.Fatal(err)
	}
	ms := func(n int) sim.Duration { return sim.Duration(time.Duration(n) * time.Millisecond) }
	for _, tc := range []struct {
		name string
		opts cmdOpts
	}{
		{"default flags", cmdOpts{window: ms(100)}},
		{"-exemplars 4 -window 50ms", cmdOpts{window: ms(50), exemplars: 4}},
		{"-faults examples/scale-lossy.json", cmdOpts{window: ms(100), faults: plan}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := sharedRunHandler(tc.opts)
			own := &ownRuns{h: h, seen: make(map[ownRun]observed)}
			var names []string
			for name, v := range views {
				if v.api != nil {
					names = append(names, name)
				}
			}
			slices.Sort(names)
			for _, name := range names {
				v := views[name]
				for _, id := range v.ids() {
					for _, fname := range v.api {
						path := apiKey("/api/"+name+"/"+id, v, fname)
						got := serveBody(t, h, path)
						d, err := own.perView(name, id)
						want := body(name, id, fname, d, err)
						if want.Code != http.StatusOK {
							t.Fatalf("%s: per-view path answered %d: %s", path, want.Code, want.Body)
						}
						if !bytes.Equal(got, want.Body) {
							t.Errorf("%s: shared-run body (%d bytes) differs from the per-view body (%d bytes)",
								path, len(got), len(want.Body))
						}
					}
				}
			}
		})
	}
}

// s1Views are the six API views of S1, with both profile formats.
var s1Views = []string{
	"/api/metrics/S1", "/api/timeseries/S1", "/api/trace/S1", "/api/profile/S1",
	"/api/profile/S1?format=pprof", "/api/exemplars/S1", "/api/audit/S1",
}

// l1Audit is L1's one API body, requested four times.
var l1Audit = []string{"/api/audit/L1", "/api/audit/L1", "/api/audit/L1", "/api/audit/L1"}

// checkRuns requires that each distinct body of paths was computed once
// and that the exhibit's model ran the given number of times, counted
// at the per-exhibit cache.
func checkRuns(t *testing.T, h *serveHandler, paths []string, runs uint64) {
	t.Helper()
	distinct := make(map[string]bool)
	for _, path := range paths {
		distinct[path] = true
	}
	bodies := len(distinct)
	if got := h.computes.Load(); got != int64(bodies) {
		t.Errorf("%d bodies computed %d times", bodies, got)
	}
	st := h.exhibits.Stats()
	if st.Misses != runs || st.Hits != uint64(bodies)-runs {
		t.Errorf("per-exhibit cache: %d misses (model runs), %d hits; want %d and %d",
			st.Misses, st.Hits, runs, uint64(bodies)-runs)
	}
}

// getAll requests each path, in turn or all at once, and requires a
// 200.
func getAll(t *testing.T, h http.Handler, paths []string, concurrent bool) {
	t.Helper()
	codes := make([]int, len(paths))
	var wg sync.WaitGroup
	for i, path := range paths {
		if !concurrent {
			codes[i] = serveRecorder(h, path).Code
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes[i] = serveRecorder(h, path).Code
		}()
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("%s: status %d", paths[i], code)
		}
	}
}

// After GETs of all six S1 views, in turn or at once, the S1 model has
// run exactly once, also with exemplars at a window other than 100 ms.
// L1's audit, its one API view, comes from one shared run too.
func TestServeOneRunPerExhibit(t *testing.T) {
	opts := cmdOpts{window: sim.Duration(100 * time.Millisecond)}
	for _, tc := range []struct {
		name       string
		opts       cmdOpts
		paths      []string
		concurrent bool
		runs       uint64
	}{
		{"sequential", opts, s1Views, false, 1},
		{"exemplars at 50ms", cmdOpts{window: sim.Duration(50 * time.Millisecond), exemplars: 4}, s1Views, false, 1},
		{"concurrent", opts, s1Views, true, 1},
		{"L1 sequential", opts, l1Audit, false, 1},
		{"L1 concurrent", opts, l1Audit, true, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := sharedRunHandler(tc.opts)
			getAll(t, h, tc.paths, tc.concurrent)
			checkRuns(t, h, tc.paths, tc.runs)
		})
	}
}

func serveRecorder(h http.Handler, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// Unknown ids are refused before the response cache: every one gets a
// 404 naming the view's id set, and none leaves an entry, a compute or a
// shared run behind.
func TestServeUnknownIDsBypassCache(t *testing.T) {
	h := sharedRunHandler(cmdOpts{window: sim.Duration(100 * time.Millisecond)})
	names := []string{"metrics", "trace", "profile", "timeseries", "exemplars", "audit"}
	for i := 0; i < 1000; i++ {
		name := names[i%len(names)]
		rec := serveRecorder(h, fmt.Sprintf("/api/%s/X%06d", name, i))
		if rec.Code != http.StatusNotFound {
			t.Fatalf("%s X%06d: status %d, want 404", name, i, rec.Code)
		}
		if set := views[name].set; !strings.Contains(rec.Body.String(), set+": [") {
			t.Fatalf("%s X%06d: 404 body does not name the %s set: %s", name, i, set, rec.Body)
		}
	}
	if st := h.table.Stats(); st != (memo.TableStats{}) {
		t.Errorf("response cache stats %+v after unknown ids, want none", st)
	}
	if n := h.computes.Load(); n != 0 {
		t.Errorf("%d computes after unknown ids, want 0", n)
	}
	if st := h.exhibits.Stats(); st != (memo.TableStats{}) {
		t.Errorf("per-exhibit cache stats %+v after unknown ids, want none", st)
	}
}

// A run longer than the sampler's window budget: at 10 clients S1 runs
// about 2,000 virtual seconds, two million 1 ms windows. The views that
// read series refuse it, naming -window, the budget and a width that
// fits; the others answer as at the default window.
func TestWindowBudgetRefusesSeriesViews(t *testing.T) {
	run := func(args ...string) (int, string, string) {
		a, out, errb, _ := testApp()
		code := a.Execute(args)
		return code, out.String(), errb.String()
	}
	for _, name := range []string{"timeseries", "audit"} {
		code, _, stderr := run("-clients", "10", "-window", "1ms", name, "S1")
		if code != 2 {
			t.Fatalf("%s S1 at -window 1ms: exit %d, want 2 (stderr %q)", name, code, stderr)
		}
		for _, want := range []string{"-window 1ms needs", "budget of 65536", "narrowest -window that fits is 31ms"} {
			if !strings.Contains(stderr, want) {
				t.Fatalf("%s S1 at -window 1ms: stderr %q lacks %q", name, stderr, want)
			}
		}
	}
	code, narrow, stderr := run("-clients", "10", "-window", "1ms", "metrics", "S1")
	if code != 0 {
		t.Fatalf("metrics S1 at -window 1ms: exit %d: %s", code, stderr)
	}
	if _, plain, _ := run("-clients", "10", "metrics", "S1"); narrow != plain {
		t.Fatalf("metrics S1 at -window 1ms differs from the default window")
	}
	if code, _, stderr := run("-clients", "10", "-window", "31ms", "timeseries", "S1"); code != 0 {
		t.Fatalf("timeseries S1 at the suggested -window 31ms: exit %d: %s", code, stderr)
	}

	h := sharedRunHandler(cmdOpts{window: sim.Duration(time.Millisecond), clients: 10})
	plain := sharedRunHandler(cmdOpts{window: sim.Duration(100 * time.Millisecond), clients: 10})
	for _, path := range []string{"/api/timeseries/S1", "/api/audit/S1"} {
		rec := serveRecorder(h, path)
		if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "budget of 65536") {
			t.Fatalf("%s at -window 1ms: status %d: %s", path, rec.Code, rec.Body)
		}
	}
	for _, path := range []string{"/api/metrics/S1", "/api/trace/S1", "/api/profile/S1"} {
		rec := serveRecorder(h, path)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s at -window 1ms: status %d: %s", path, rec.Code, rec.Body)
		}
		if !bytes.Equal(rec.Body.Bytes(), serveRecorder(plain, path).Body.Bytes()) {
			t.Fatalf("%s at -window 1ms differs from the default window", path)
		}
	}
	if rec := serveRecorder(h, "/api/exemplars/S1"); rec.Code != http.StatusOK {
		t.Fatalf("exemplars S1 at -window 1ms: status %d: %s", rec.Code, rec.Body)
	}
}

// coldPaths are the serve cold phase of the repository benchmark: one
// GET each, in this order, on a fresh server.
var coldPaths = []string{
	"metrics/S1", "metrics/F1", "metrics/F12",
	"timeseries/S1", "timeseries/F1",
	"trace/S1", "trace/F1",
	"profile/S1", "profile/F12",
	"exemplars/S1", "audit/S1", "experiments",
}

// benchServer is a fresh handler behind httptest at the serve command's
// default flags, two workers.
func benchServer(b *testing.B) *httptest.Server {
	b.Helper()
	h := newServeHandler(core.DefaultConfig(), core.NewRunner(2),
		cmdOpts{window: sim.Duration(100 * time.Millisecond)},
		func(path string) ([]byte, error) { return nil, fmt.Errorf("no file %s", path) })
	return httptest.NewServer(h)
}

// benchGet fetches base+path and requires the wanted status.
func benchGet(b *testing.B, c *http.Client, url, inm string, want int) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		b.Fatal(err)
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := c.Do(req)
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != want {
		b.Fatalf("%s: status %d, want %d", url, resp.StatusCode, want)
	}
}

// BenchmarkServeCold times the cold phase: a fresh server per iteration,
// sent the twelve cold GETs in order.
func BenchmarkServeCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		srv := benchServer(b)
		b.StartTimer()
		for _, p := range coldPaths {
			benchGet(b, srv.Client(), srv.URL+"/api/"+p, "", http.StatusOK)
		}
		b.StopTimer()
		srv.Close()
		b.StartTimer()
	}
}

// BenchmarkServeWarmHit times a cache hit: metrics/S1, the warm mix's
// most requested body, already computed.
func BenchmarkServeWarmHit(b *testing.B) {
	srv := benchServer(b)
	defer srv.Close()
	url := srv.URL + "/api/metrics/S1"
	benchGet(b, srv.Client(), url, "", http.StatusOK)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGet(b, srv.Client(), url, "", http.StatusOK)
	}
}

// BenchmarkServeNotModified times a revalidation: metrics/S1 with its
// ETag in If-None-Match, answered by an empty 304.
func BenchmarkServeNotModified(b *testing.B) {
	srv := benchServer(b)
	defer srv.Close()
	url := srv.URL + "/api/metrics/S1"
	resp, err := srv.Client().Get(url)
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGet(b, srv.Client(), url, etag, http.StatusNotModified)
	}
}
