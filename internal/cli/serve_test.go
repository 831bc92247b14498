package cli

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/osprofile"
	"repro/internal/sim"
)

// serveFixture builds the HTTP handler under test: small client
// population so the S probes stay cheap, in-memory baseline file.
func serveFixture(t *testing.T, files map[string][]byte) *httptest.Server {
	t.Helper()
	cfg := core.DefaultConfig()
	opts := cmdOpts{
		baseline: "base.json",
		window:   sim.Duration(100 * time.Millisecond),
		clients:  2000,
	}
	readFile := func(path string) ([]byte, error) {
		if b, ok := files[path]; ok {
			return b, nil
		}
		return nil, fmt.Errorf("no file %s", path)
	}
	srv := httptest.NewServer(newServeHandler(cfg, core.NewRunner(1), opts, readFile))
	t.Cleanup(srv.Close)
	return srv
}

func get(t *testing.T, url string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestServeExperimentsEndpoint(t *testing.T) {
	srv := serveFixture(t, nil)
	resp, body := get(t, srv.URL+"/api/experiments", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var list []struct {
		ID      string `json:"id"`
		Title   string `json:"title"`
		Sampled bool   `json:"sampled"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatalf("experiments is not JSON: %v", err)
	}
	found := false
	for _, e := range list {
		if e.ID == "S1" {
			found = true
			if !e.Sampled {
				t.Error("S1 should be sampled")
			}
			if e.Title == "" {
				t.Error("S1 title missing")
			}
		}
	}
	if !found {
		t.Fatalf("S1 missing from experiments: %s", body)
	}
}

func TestServeMetricsPrometheusWithETag(t *testing.T) {
	srv := serveFixture(t, nil)
	resp, body := get(t, srv.URL+"/api/metrics/F1", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	text := string(body)
	if !strings.Contains(text, "pentiumbench_") || !strings.Contains(text, `experiment="F1"`) {
		t.Fatalf("not Prometheus exposition:\n%.300s", text)
	}
	if strings.Contains(text, "pentiumbench_runner_") {
		t.Error("runner self-metrics must be excluded (nondeterministic ETag)")
	}
	// Every sample line must scan as name{labels} value, and every name
	// must stay within the Prometheus metric-name grammar. HELP/TYPE
	// comment lines are part of the exposition format and skipped.
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		brace := strings.Index(line, "{")
		if brace < 1 || !strings.Contains(line, `"} `) {
			t.Fatalf("malformed exposition line %q", line)
		}
		for _, r := range line[:brace] {
			ok := r == '_' || r == ':' || (r >= 'a' && r <= 'z') ||
				(r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
			if !ok {
				t.Fatalf("metric name %q has illegal rune %q", line[:brace], r)
			}
		}
	}
	etag := resp.Header.Get("ETag")
	if !strings.HasPrefix(etag, `"sha256-`) {
		t.Fatalf("ETag = %q, want sha256 content hash", etag)
	}

	// A matching If-None-Match must turn into an empty 304.
	resp2, body2 := get(t, srv.URL+"/api/metrics/F1", map[string]string{"If-None-Match": etag})
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation status = %d, want 304", resp2.StatusCode)
	}
	if len(body2) != 0 {
		t.Fatalf("304 carried a body: %q", body2)
	}

	// A stale tag must get the full response again, same hash.
	resp3, _ := get(t, srv.URL+"/api/metrics/F1", map[string]string{"If-None-Match": `"sha256-stale"`})
	if resp3.StatusCode != http.StatusOK || resp3.Header.Get("ETag") != etag {
		t.Fatalf("stale revalidation: status %d etag %q", resp3.StatusCode, resp3.Header.Get("ETag"))
	}
}

// The scale probes expose their full latency histogram as a real
// Prometheus histogram family: HELP/TYPE header, cumulative le buckets
// on the stats.Histogram boundaries, +Inf, _sum and _count.
func TestServeMetricsHistogramExposition(t *testing.T) {
	srv := serveFixture(t, nil)
	resp, body := get(t, srv.URL+"/api/metrics/S1", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	text := string(body)
	for _, want := range []string{
		"# HELP pentiumbench_nfs_latency_ns ",
		"# TYPE pentiumbench_nfs_latency_ns histogram",
		`pentiumbench_nfs_latency_ns_bucket{experiment="S1"`,
		`le="+Inf"`,
		"pentiumbench_nfs_latency_ns_sum{",
		"pentiumbench_nfs_latency_ns_count{",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%.400s", want, text)
		}
	}
	// Buckets must be cumulative per series: non-decreasing counts, and
	// the +Inf bucket equal to the family count.
	last := map[string]int64{}
	inf := map[string]int64{}
	count := map[string]int64{}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, _ := strings.Cut(line, "{")
		labels, valText, ok := strings.Cut(rest, "} ")
		if !ok {
			t.Fatalf("malformed line %q", line)
		}
		var v int64
		fmt.Sscanf(valText, "%d", &v)
		sys := labels[:strings.LastIndex(labels, ",le=")+1]
		switch {
		case name == "pentiumbench_nfs_latency_ns_bucket" && strings.Contains(labels, `le="+Inf"`):
			inf[sys] = v
		case name == "pentiumbench_nfs_latency_ns_bucket":
			if v < last[sys] {
				t.Fatalf("bucket counts not cumulative at %q", line)
			}
			last[sys] = v
		case name == "pentiumbench_nfs_latency_ns_count":
			count[labels] = v
		}
	}
	if len(inf) == 0 || len(count) == 0 {
		t.Fatal("no histogram series parsed")
	}
	for sys, n := range inf {
		if fin := last[sys]; fin > n {
			t.Fatalf("finite buckets (%d) exceed +Inf (%d) for %q", fin, n, sys)
		}
	}
}

func TestServeTimeseriesEndpoint(t *testing.T) {
	srv := serveFixture(t, nil)
	resp, body := get(t, srv.URL+"/api/timeseries/F1", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var runs []struct {
		Experiment string `json:"experiment"`
		System     string `json:"system"`
		Series     struct {
			WidthNs int64 `json:"width_ns"`
			Windows int   `json:"windows"`
		} `json:"series"`
	}
	if err := json.Unmarshal(body, &runs); err != nil {
		t.Fatalf("timeseries is not JSON: %v", err)
	}
	if len(runs) == 0 {
		t.Fatal("no sampled runs")
	}
	for _, r := range runs {
		if r.Experiment != "F1" || r.Series.Windows <= 0 || r.Series.WidthNs <= 0 {
			t.Fatalf("bad run %+v", r)
		}
	}

	// An observable-but-unsampled id is a 404, not an empty series.
	resp2, _ := get(t, srv.URL+"/api/timeseries/T2", nil)
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("unsampled id status = %d, want 404", resp2.StatusCode)
	}
}

func TestServeTraceAndProfileEndpoints(t *testing.T) {
	srv := serveFixture(t, nil)
	resp, body := get(t, srv.URL+"/api/trace/F12", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status = %d", resp.StatusCode)
	}
	var events []map[string]any
	if err := json.Unmarshal(body, &events); err != nil || len(events) == 0 {
		t.Fatalf("trace is not a chrome event array (%d events): %v", len(events), err)
	}

	resp, body = get(t, srv.URL+"/api/profile/F12", nil)
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("folded profile: status %d, %d bytes", resp.StatusCode, len(body))
	}
	if !strings.Contains(string(body), ";") {
		t.Fatalf("folded stacks missing frame separators:\n%.200s", body)
	}

	resp, body = get(t, srv.URL+"/api/profile/F12?format=pprof", nil)
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("pprof profile: status %d, %d bytes", resp.StatusCode, len(body))
	}

	resp, _ = get(t, srv.URL+"/api/profile/F12?format=yaml", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad format status = %d, want 400", resp.StatusCode)
	}
}

// The exemplar endpoint returns every sampled request's lifecycle with
// phases that sum exactly to its recorded latency.
func TestServeExemplarsEndpoint(t *testing.T) {
	srv := serveFixture(t, nil)
	resp, body := get(t, srv.URL+"/api/exemplars/S1", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var runs []struct {
		Experiment string `json:"experiment"`
		System     string `json:"system"`
		ExemplarK  int    `json:"exemplar_k"`
		Windows    []struct {
			Window    int `json:"window"`
			Exemplars []struct {
				ID        uint64 `json:"id"`
				Shed      bool   `json:"shed"`
				WireNs    int64  `json:"wire_ns"`
				RTONs     int64  `json:"rto_ns"`
				QueueNs   int64  `json:"queue_ns"`
				CPUNs     int64  `json:"cpu_ns"`
				DiskWait  int64  `json:"disk_wait_ns"`
				DiskNs    int64  `json:"disk_ns"`
				LatencyNs int64  `json:"latency_ns"`
			} `json:"exemplars"`
		} `json:"windows"`
	}
	if err := json.Unmarshal(body, &runs); err != nil {
		t.Fatalf("exemplars is not JSON: %v", err)
	}
	if len(runs) == 0 {
		t.Fatal("no exemplar runs")
	}
	seen := 0
	for _, r := range runs {
		if r.Experiment != "S1" || r.ExemplarK != 4 {
			t.Fatalf("bad run header %+v", r)
		}
		for _, w := range r.Windows {
			if len(w.Exemplars) == 0 || len(w.Exemplars) > r.ExemplarK {
				t.Fatalf("window %d holds %d exemplars, want 1..%d", w.Window, len(w.Exemplars), r.ExemplarK)
			}
			for _, e := range w.Exemplars {
				seen++
				sum := e.WireNs + e.RTONs + e.QueueNs + e.CPUNs + e.DiskWait + e.DiskNs
				if sum != e.LatencyNs {
					t.Fatalf("req %d phases sum to %d, latency %d", e.ID, sum, e.LatencyNs)
				}
			}
		}
	}
	if seen == 0 {
		t.Fatal("no exemplars in any window")
	}

	// Probes without exemplar instrumentation are a 404 naming the
	// exemplar set — L1 too, though it is auditable.
	for _, id := range []string{"F1", "L1"} {
		resp2, body2 := get(t, srv.URL+"/api/exemplars/"+id, nil)
		if resp2.StatusCode != http.StatusNotFound {
			t.Fatalf("uninstrumented id %s status = %d, want 404", id, resp2.StatusCode)
		}
		if !strings.Contains(string(body2), "exemplar-traced: [S1 S2]") {
			t.Fatalf("%s 404 should name the exemplar set: %s", id, body2)
		}
	}
}

// The audit endpoint returns a clean machine-readable verdict for the
// exhibited scale probes.
func TestServeAuditEndpoint(t *testing.T) {
	srv := serveFixture(t, nil)
	resp, body := get(t, srv.URL+"/api/audit/S1", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var verdict struct {
		ID      string `json:"id"`
		OK      bool   `json:"ok"`
		Reports []struct {
			System    string `json:"system"`
			Evaluated int    `json:"evaluated"`
			Failed    int    `json:"failed"`
		} `json:"reports"`
	}
	if err := json.Unmarshal(body, &verdict); err != nil {
		t.Fatalf("audit is not JSON: %v", err)
	}
	if verdict.ID != "S1" || !verdict.OK || len(verdict.Reports) == 0 {
		t.Fatalf("bad verdict: %s", body)
	}
	for _, rep := range verdict.Reports {
		if rep.Failed != 0 || rep.Evaluated < 20 {
			t.Fatalf("report %s: failed=%d evaluated=%d", rep.System, rep.Failed, rep.Evaluated)
		}
	}

	resp2, body2 := get(t, srv.URL+"/api/audit/F1", nil)
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("unauditable id status = %d, want 404", resp2.StatusCode)
	}
	if !strings.Contains(string(body2), "auditable: [S1 S2 L1]") {
		t.Fatalf("404 should name the auditable set: %s", body2)
	}

	// L1 is auditable on both surfaces: six clean reports (three
	// personalities, spin and sleep) carrying the CLI's checks.
	resp3, body3 := get(t, srv.URL+"/api/audit/L1", nil)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("L1 status = %d: %s", resp3.StatusCode, body3)
	}
	var l1 struct {
		ID      string            `json:"id"`
		OK      bool              `json:"ok"`
		Reports []json.RawMessage `json:"reports"`
	}
	if err := json.Unmarshal(body3, &l1); err != nil {
		t.Fatalf("L1 audit is not JSON: %v", err)
	}
	if l1.ID != "L1" || !l1.OK || len(l1.Reports) != 6 {
		t.Fatalf("bad L1 verdict: id %q ok %v, %d reports", l1.ID, l1.OK, len(l1.Reports))
	}
	a, out, errb, _ := testApp()
	if code := a.Execute([]string{"-format", "json", "audit", "L1"}); code != 0 {
		t.Fatalf("audit L1 exit = %d: %s", code, errb.String())
	}
	var cli []struct{ Reports []json.RawMessage }
	if err := json.Unmarshal(out.Bytes(), &cli); err != nil || len(cli) != 1 {
		t.Fatalf("audit L1 json: %v", err)
	}
	for i, rep := range l1.Reports {
		if !jsonEqual(t, rep, cli[0].Reports[i]) {
			t.Fatalf("report %d differs from the CLI's:\n%s\nvs\n%s", i, rep, cli[0].Reports[i])
		}
	}
}

// jsonEqual reports whether two JSON documents decode to equal values.
func jsonEqual(t *testing.T, a, b []byte) bool {
	t.Helper()
	var va, vb any
	if err := json.Unmarshal(a, &va); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &vb); err != nil {
		t.Fatal(err)
	}
	return reflect.DeepEqual(va, vb)
}

func TestServeBaselineDiff(t *testing.T) {
	// Record a baseline from the same deterministic engine the server
	// will re-run: the diff must come back clean.
	cfg := core.DefaultConfig()
	suite, err := core.NewRunner(1).Observe(cfg, []string{"F1"}, core.ObserveOpts{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := baseline.FromSuite([]string{"F1"}, cfg.Seed, suite).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	srv := serveFixture(t, map[string][]byte{"base.json": data})
	resp, body := get(t, srv.URL+"/api/baseline/diff", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var diff struct {
		OK         bool   `json:"ok"`
		Compared   int    `json:"compared"`
		Seed       uint64 `json:"seed"`
		Violations []baseline.Violation
	}
	if err := json.Unmarshal(body, &diff); err != nil {
		t.Fatalf("diff is not JSON: %v", err)
	}
	if !diff.OK || diff.Compared == 0 {
		t.Fatalf("self-diff should be clean: %+v", diff)
	}
}

// serveBody requests path from h in-process and returns the 200 body.
func serveBody(t *testing.T, h http.Handler, path string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s status = %d: %s", path, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

// TestServeMemoKeyedByProfiles: a -future server on a store filled by a
// paper-set server must compute its own bodies, not replay the paper
// set's.
func TestServeMemoKeyedByProfiles(t *testing.T) {
	dir := t.TempDir()
	body := func(profiles []*osprofile.Profile, withStore bool) []byte {
		cfg := core.DefaultConfig()
		cfg.Profiles = profiles
		if withStore {
			store, err := memo.OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Memo = store
		}
		return serveBody(t, newServeHandler(cfg, core.NewRunner(1), cmdOpts{}, nil), "/api/metrics/T2")
	}
	body(osprofile.Paper(), true)
	future := append(osprofile.Paper(), osprofile.Linux1340(), osprofile.FreeBSD21(), osprofile.Solaris25())
	if got, want := body(future, true), body(future, false); !bytes.Equal(got, want) {
		t.Fatalf("-future body from the paper set's store differs from the storeless one:\n%s", got)
	}
}

// TestServeMemoKeyPinned pins the seed-1 key of one stored response at
// the serve command's default flags: a key's SHA-256 names its store
// entry's file, so a key that moves by one byte strands every entry an
// older server stored. It may change only together with serveSchema.
func TestServeMemoKeyPinned(t *testing.T) {
	dir := t.TempDir()
	store, err := memo.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Memo = store
	h := newServeHandler(cfg, core.NewRunner(1), cmdOpts{window: sim.Duration(100 * time.Millisecond)}, nil)
	serveBody(t, h, "/api/metrics/T2")
	var entries []string
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			entries = append(entries, strings.TrimPrefix(path, dir))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	const sum = "f16ebbd2e7b247286d9f4a6bf8ad7baf2db7140690adac1e04a37a8b698ba336"
	if want := "/" + sum[:2] + "/" + sum[2:] + ".json"; len(entries) != 1 || entries[0] != want {
		t.Fatalf("store entries after GET /api/metrics/T2: %q, want [%q]", entries, want)
	}
}

// serveKeys splices each endpoint into key material encoded once; the
// bytes must equal the reference encoding, json.Marshal of the map of
// every key field around the indented personality JSON, for the paper
// and -future sets, probe flags set and unset, and endpoints json
// escapes (the baseline diff key carries "&").
func TestServeKeysMatchMapEncoding(t *testing.T) {
	future := append(osprofile.Paper(), osprofile.Linux1340(), osprofile.FreeBSD21(), osprofile.Solaris25())
	for _, profiles := range [][]*osprofile.Profile{osprofile.Paper(), future} {
		for _, o := range []cmdOpts{
			{window: sim.Duration(100 * time.Millisecond)},
			{window: sim.Duration(50 * time.Millisecond), clients: 2000, nfsd: 16, procs: 4, exemplars: 4},
		} {
			cfg := core.DefaultConfig()
			cfg.Seed, cfg.Profiles = 7, profiles
			keyOf := serveKeys(cfg, o)
			for _, endpoint := range []string{"/api/metrics/T2", "/api/profile/F12?format=pprof",
				"/api/baseline/diff?sha256=00ff&tol=0", `/api/trace/<x>"\u2028`} {
				var prof bytes.Buffer
				if err := osprofile.WriteJSON(&prof, cfg.Profiles); err != nil {
					t.Fatal(err)
				}
				want, err := json.Marshal(map[string]any{
					"schema": serveSchema, "seed": cfg.Seed, "runs": cfg.Runs,
					"window": int64(o.window), "clients": o.clients,
					"nfsd": o.nfsd, "procs": o.procs,
					"exemplars": o.exemplars, "endpoint": endpoint,
					"profiles": json.RawMessage(prof.Bytes()),
				})
				if err != nil {
					t.Fatal(err)
				}
				if got := keyOf(endpoint); !bytes.Equal(got, want) {
					t.Fatalf("%d profiles, %+v, %s: key\n%s\nwant\n%s", len(profiles), o, endpoint, got, want)
				}
			}
		}
	}
}

// TestServeBaselineDiffFollowsFile: editing the baseline file must
// change /api/baseline/diff, both for a restarted -memo server and
// between two requests to one server.
func TestServeBaselineDiffFollowsFile(t *testing.T) {
	cfg := core.DefaultConfig()
	suite, err := core.NewRunner(1).Observe(cfg, []string{"T2"}, core.ObserveOpts{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := baseline.FromSuite([]string{"T2"}, cfg.Seed, suite).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	bumped := bytes.Replace(data, []byte(`"kernel.processes": 1`), []byte(`"kernel.processes": 2`), 1)
	if bytes.Equal(bumped, data) {
		t.Fatalf("fixture drift: kernel.processes not found in baseline:\n%s", data)
	}
	file := data
	readFile := func(string) ([]byte, error) { return file, nil }
	// handler builds a server on the -memo store at dir, or on none when
	// dir is empty.
	handler := func(dir string) http.Handler {
		c := cfg
		if dir != "" {
			store, err := memo.OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			c.Memo = store
		}
		return newServeHandler(c, core.NewRunner(1), cmdOpts{baseline: "base.json"}, readFile)
	}
	diffOK := func(h http.Handler) bool {
		var diff struct {
			OK bool `json:"ok"`
		}
		if err := json.Unmarshal(serveBody(t, h, "/api/baseline/diff"), &diff); err != nil {
			t.Fatal(err)
		}
		return diff.OK
	}

	dir := t.TempDir()
	if !diffOK(handler(dir)) {
		t.Fatal("recorded baseline does not diff clean")
	}
	file = bumped
	if diffOK(handler(dir)) {
		t.Fatal("restarted -memo server replayed the diff of the unedited baseline")
	}

	file = data
	h := handler("")
	if !diffOK(h) {
		t.Fatal("recorded baseline does not diff clean")
	}
	file = bumped
	if diffOK(h) {
		t.Fatal("server replayed the diff of the unedited baseline")
	}
}

func TestServeBaselineDiffMissingFile(t *testing.T) {
	srv := serveFixture(t, nil)
	resp, body := get(t, srv.URL+"/api/baseline/diff", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404: %s", resp.StatusCode, body)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("error body malformed: %s", body)
	}
}

func TestServeUnknownExperiment(t *testing.T) {
	srv := serveFixture(t, nil)
	for _, path := range []string{"/api/metrics/F99", "/api/metrics/", "/api/trace/F1/extra"} {
		resp, body := get(t, srv.URL+path, nil)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s status = %d, want 404: %s", path, resp.StatusCode, body)
		}
	}
}

func TestServeMethodNotAllowed(t *testing.T) {
	srv := serveFixture(t, nil)
	resp, err := http.Post(srv.URL+"/api/experiments", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status = %d, want 405", resp.StatusCode)
	}
}

func TestServeCommandBadAddr(t *testing.T) {
	a, _, errb, _ := testApp()
	if code := a.Execute([]string{"-addr", "256.256.256.256:0", "serve"}); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if errb.Len() == 0 {
		t.Fatal("listen error not reported")
	}
}

// The server the serve command runs bounds the request-header read, so a
// client that connects and never finishes its header cannot hold a
// goroutine and a socket for good. The idle wait between keep-alive
// requests stays unbounded.
func TestServeServerReadHeaderTimeout(t *testing.T) {
	srv := newServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout != serveReadHeaderTimeout || serveReadHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want %v (> 0)", srv.ReadHeaderTimeout, serveReadHeaderTimeout)
	}
	if srv.IdleTimeout != 0 || srv.ReadTimeout != 0 {
		t.Fatalf("IdleTimeout = %v, ReadTimeout = %v; keep-alive connections must not time out idle",
			srv.IdleTimeout, srv.ReadTimeout)
	}
}
