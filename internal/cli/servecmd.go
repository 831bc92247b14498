package cli

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/obs"
)

// serveSchema versions the persistent serve-response cache: bump it when
// a response format changes so a -memo directory from an older build
// degrades to recomputes (the store's key echo rejects the old entries).
// /2: exemplar and audit endpoints, histogram exposition in /api/metrics.
const serveSchema = "pentiumbench-serve/2"

// serveEntry is one cached endpoint response: the body, its content
// type, and the SHA-256 content hash that doubles as the ETag. It is
// the unit the memo table (in-process single-flight) and the memo store
// (persistent, -memo) both hold.
type serveEntry struct {
	Body []byte `json:"body"`
	Type string `json:"type"`
	ETag string `json:"etag"`
	// Code is the HTTP status; error responses cache in-process (they
	// are deterministic) but are never persisted.
	Code int `json:"code"`
}

// serveHandler is the pentiumbench observability server: every endpoint
// is a deterministic function of the configuration, so responses are
// computed once (single-flight), content-hashed, and replayed from cache
// with a working If-None-Match → 304 path.
type serveHandler struct {
	cfg      core.Config
	runner   *core.Runner
	opts     cmdOpts
	readFile func(string) ([]byte, error)
	table    *memo.Table[string, serveEntry]
	mux      *http.ServeMux
	// computes counts cache-miss computations; tests assert the
	// single-flight property (N concurrent cold requests, one compute).
	computes atomic.Int64
}

// newServeHandler builds the HTTP handler; the CLI wraps it in a
// listener, tests in httptest. readFile loads the -baseline file for
// /api/baseline/diff (injected so tests control the filesystem).
func newServeHandler(cfg core.Config, runner *core.Runner, opts cmdOpts,
	readFile func(string) ([]byte, error)) *serveHandler {
	h := &serveHandler{
		cfg:      cfg,
		runner:   runner,
		opts:     opts,
		readFile: readFile,
		table:    memo.NewTable[string, serveEntry](),
		mux:      http.NewServeMux(),
	}
	h.mux.HandleFunc("/api/experiments", h.handle(func(r *http.Request) serveEntry {
		return h.experiments()
	}))
	h.mux.HandleFunc("/api/metrics/", h.handleID("/api/metrics/", h.metrics))
	h.mux.HandleFunc("/api/timeseries/", h.handleID("/api/timeseries/", h.timeseries))
	h.mux.HandleFunc("/api/trace/", h.handleID("/api/trace/", h.trace))
	h.mux.HandleFunc("/api/profile/", h.keyed(profileKey, byID("/api/profile/", h.profile)))
	h.mux.HandleFunc("/api/exemplars/", h.handleID("/api/exemplars/", h.exemplars))
	h.mux.HandleFunc("/api/audit/", h.handleID("/api/audit/", h.audit))
	h.mux.HandleFunc("/api/baseline/diff", h.handle(func(r *http.Request) serveEntry {
		return h.baselineDiff()
	}))
	return h
}

func (h *serveHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

// handle wraps an endpoint computation with the cache, the ETag, and the
// 304 path, caching under the request path alone: the endpoints it
// serves ignore the query string, so a query must not split the cache.
func (h *serveHandler) handle(compute func(*http.Request) serveEntry) http.HandlerFunc {
	return h.keyed(func(r *http.Request) (string, *serveEntry) { return r.URL.Path, nil }, compute)
}

// keyed is handle with the cache key chosen per endpoint: keyOf names
// the response a request asks for, so requests for the same body share
// one entry, or rejects the request with an error response that is sent
// without touching the cache.
func (h *serveHandler) keyed(keyOf func(*http.Request) (string, *serveEntry),
	compute func(*http.Request) serveEntry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		key, e := keyOf(r)
		if e == nil {
			v := h.table.Do(key, func() serveEntry {
				h.computes.Add(1)
				return h.stored(key, func() serveEntry { return compute(r) })
			})
			e = &v
		}
		if e.Code == http.StatusOK {
			w.Header().Set("ETag", e.ETag)
			if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, e.ETag) {
				w.WriteHeader(http.StatusNotModified)
				return
			}
		}
		w.Header().Set("Content-Type", e.Type)
		w.WriteHeader(e.Code)
		if r.Method != http.MethodHead {
			w.Write(e.Body)
		}
	}
}

// stored is the persistent layer: with -memo attached, successful
// responses are content-addressed on disk under a key carrying the
// serve schema, the seed and the endpoint, so a restarted server is
// warm from its first request.
func (h *serveHandler) stored(key string, compute func() serveEntry) serveEntry {
	if h.cfg.Memo == nil {
		return compute()
	}
	mat, err := json.Marshal(map[string]any{
		"schema": serveSchema, "seed": h.cfg.Seed, "runs": h.cfg.Runs,
		"window": int64(h.opts.window), "clients": h.opts.clients,
		"nfsd": h.opts.nfsd, "procs": h.opts.procs,
		"exemplars": h.opts.exemplars, "endpoint": key,
	})
	if err != nil {
		return compute()
	}
	var e serveEntry
	if h.cfg.Memo.Get(mat, &e) && e.Code == http.StatusOK {
		return e
	}
	e = compute()
	if e.Code == http.StatusOK {
		h.cfg.Memo.Put(mat, e)
	}
	return e
}

// etagMatch reports whether the If-None-Match header value matches the
// entity tag ("*" or a comma-separated candidate list).
func etagMatch(header, etag string) bool {
	if strings.TrimSpace(header) == "*" {
		return true
	}
	for _, c := range strings.Split(header, ",") {
		if strings.TrimSpace(c) == etag {
			return true
		}
	}
	return false
}

// entry finalizes a successful response: the ETag is the SHA-256 of the
// body, strong and content-addressed, so any byte change rolls it.
func entry(body []byte, contentType string) serveEntry {
	sum := sha256.Sum256(body)
	return serveEntry{
		Body: body,
		Type: contentType,
		ETag: `"sha256-` + hex.EncodeToString(sum[:]) + `"`,
		Code: http.StatusOK,
	}
}

// fail builds an uncached-on-disk JSON error response.
func fail(code int, format string, args ...any) serveEntry {
	body, _ := json.Marshal(map[string]string{"error": fmt.Sprintf(format, args...)})
	return serveEntry{Body: append(body, '\n'), Type: "application/json", Code: code}
}

// handleID adapts an id-parameterized endpoint: the id is the path
// remainder after the prefix, validated against the observable set.
func (h *serveHandler) handleID(prefix string, fn func(id string, r *http.Request) serveEntry) http.HandlerFunc {
	return h.handle(byID(prefix, fn))
}

// byID is handleID's computation before the cache wraps it.
func byID(prefix string, fn func(id string, r *http.Request) serveEntry) func(*http.Request) serveEntry {
	return func(r *http.Request) serveEntry {
		id := strings.TrimPrefix(r.URL.Path, prefix)
		if id == "" || strings.Contains(id, "/") {
			return fail(http.StatusNotFound, "missing experiment id (observable: %v)", core.ObservableIDs())
		}
		if !slices.Contains(core.ObservableIDs(), id) {
			return fail(http.StatusNotFound, "unknown experiment %q (observable: %v)", id, core.ObservableIDs())
		}
		return fn(id, r)
	}
}

// profileKey keys the profile endpoint, the one endpoint that reads the
// query: its format is checked before the cache, so an unknown format is
// a 400 that leaves no entry, and "" and "folded" name the same body, so
// they share one.
func profileKey(r *http.Request) (string, *serveEntry) {
	switch f := r.URL.Query().Get("format"); f {
	case "", "folded":
		return r.URL.Path, nil
	case "pprof":
		return r.URL.Path + "?format=pprof", nil
	default:
		e := fail(http.StatusBadRequest, "unknown profile format %q (want folded or pprof)", f)
		return "", &e
	}
}

// observe runs one probe with the serve options; window attaches the
// time-series sampler, exemplarK the per-window exemplar reservoirs.
func (h *serveHandler) observe(id string, window bool, exemplarK int) (*core.SuiteObservation, error) {
	opts := core.ObserveOpts{Procs: h.opts.procs, Clients: h.opts.clients,
		Nfsd: h.opts.nfsd, ExemplarK: exemplarK}
	if window {
		opts.Window = h.opts.window
	}
	return h.runner.Observe(h.cfg, []string{id}, opts)
}

// exemplarK is the reservoir size the exemplar and audit endpoints use:
// the -exemplars flag when given, else 4 (the audit default) — these
// endpoints exist to show exemplars, so zero would be useless.
func (h *serveHandler) exemplarK() int {
	if h.opts.exemplars > 0 {
		return h.opts.exemplars
	}
	return 4
}

// experiments lists the observability surface: every observable probe,
// with its title and whether it is sampled/faultable.
func (h *serveHandler) experiments() serveEntry {
	type exp struct {
		ID        string `json:"id"`
		Title     string `json:"title"`
		Sampled   bool   `json:"sampled"`
		Faultable bool   `json:"faultable"`
	}
	var out []exp
	for _, id := range core.ObservableIDs() {
		title := id
		if e, ok := core.Lookup(id); ok {
			title = e.Title
		}
		out = append(out, exp{
			ID: id, Title: title,
			Sampled:   slices.Contains(core.SampledIDs(), id),
			Faultable: slices.Contains(core.FaultableIDs(), id),
		})
	}
	body, _ := json.MarshalIndent(out, "", "  ")
	return entry(append(body, '\n'), "application/json")
}

// metrics renders one probe's merged metric snapshot in the Prometheus
// text exposition format, runner self-metrics excluded (they carry wall
// clock and would roll the content hash on every compute).
func (h *serveHandler) metrics(id string, _ *http.Request) serveEntry {
	suite, err := h.observe(id, false, h.opts.exemplars)
	if err != nil {
		return fail(http.StatusInternalServerError, "observe %s: %v", id, err)
	}
	var b bytes.Buffer
	for _, o := range suite.Observations {
		for _, run := range o.Runs {
			snap := run.Metrics.ExcludePrefix("runner.")
			for _, c := range snap.Counters {
				fmt.Fprintf(&b, "%s{experiment=%q,system=%q} %v\n",
					promName(c.Name), o.ID, run.Label, c.Value)
			}
			for _, d := range snap.Dists {
				n := promName(d.Name)
				fmt.Fprintf(&b, "%s_count{experiment=%q,system=%q} %d\n", n, o.ID, run.Label, d.Count)
				fmt.Fprintf(&b, "%s_sum{experiment=%q,system=%q} %v\n", n, o.ID, run.Label, d.Sum)
			}
		}
	}
	promLatencyHist(&b, suite)
	return entry(b.Bytes(), "text/plain; version=0.0.4; charset=utf-8")
}

// promLatencyHist appends the NFS scale probes' full latency histogram
// as a real Prometheus histogram family: cumulative le buckets on the
// stats.Histogram boundaries, a +Inf bucket, _sum and _count, with the
// HELP/TYPE header once before the first sample.
func promLatencyHist(b *bytes.Buffer, suite *core.SuiteObservation) {
	const family = "pentiumbench_nfs_latency_ns"
	wroteHead := false
	for _, o := range suite.Observations {
		for _, run := range o.Runs {
			hist := run.LatencyHist
			if hist == nil || hist.N() == 0 {
				continue
			}
			if !wroteHead {
				fmt.Fprintf(b, "# HELP %s NFS request latency in virtual nanoseconds.\n", family)
				fmt.Fprintf(b, "# TYPE %s histogram\n", family)
				wroteHead = true
			}
			cum := uint64(0)
			for _, bk := range hist.Buckets() {
				cum += bk.Count
				fmt.Fprintf(b, "%s_bucket{experiment=%q,system=%q,le=\"%d\"} %d\n",
					family, o.ID, run.Label, bk.Upper, cum)
			}
			fmt.Fprintf(b, "%s_bucket{experiment=%q,system=%q,le=\"+Inf\"} %d\n",
				family, o.ID, run.Label, hist.N())
			fmt.Fprintf(b, "%s_sum{experiment=%q,system=%q} %d\n", family, o.ID, run.Label, hist.Sum())
			fmt.Fprintf(b, "%s_count{experiment=%q,system=%q} %d\n", family, o.ID, run.Label, hist.N())
		}
	}
}

// promName maps a dotted metric name onto the Prometheus grammar
// ([a-zA-Z_:][a-zA-Z0-9_:]*), prefixed to namespace the exposition.
func promName(name string) string {
	var sb strings.Builder
	sb.WriteString("pentiumbench_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// timeseries serves one sampled probe's virtual-time series as JSON —
// the same snapshots the timeseries CLI command emits.
func (h *serveHandler) timeseries(id string, _ *http.Request) serveEntry {
	if !slices.Contains(core.SampledIDs(), id) {
		return fail(http.StatusNotFound, "%q has no time-series instrumentation (sampled: %v)", id, core.SampledIDs())
	}
	suite, err := h.observe(id, true, h.opts.exemplars)
	if err != nil {
		return fail(http.StatusInternalServerError, "observe %s: %v", id, err)
	}
	type runSeries struct {
		Experiment string          `json:"experiment"`
		System     string          `json:"system"`
		Series     *obs.TimeSeries `json:"series"`
	}
	out := []runSeries{}
	for _, o := range suite.Observations {
		for _, run := range o.Runs {
			if run.Series != nil {
				out = append(out, runSeries{o.ID, run.Label, run.Series})
			}
		}
	}
	body, _ := json.MarshalIndent(out, "", "  ")
	return entry(append(body, '\n'), "application/json")
}

// trace serves one probe's span streams as Chrome trace-event JSON
// (load in Perfetto or chrome://tracing).
func (h *serveHandler) trace(id string, _ *http.Request) serveEntry {
	suite, err := h.observe(id, false, h.opts.exemplars)
	if err != nil {
		return fail(http.StatusInternalServerError, "observe %s: %v", id, err)
	}
	var b bytes.Buffer
	if err := obs.WriteChrome(&b, suite.Processes); err != nil {
		return fail(http.StatusInternalServerError, "trace %s: %v", id, err)
	}
	return entry(b.Bytes(), "application/json")
}

// profile serves one probe's exact virtual-time profile: folded stacks
// by default, ?format=pprof the go-tool-pprof protobuf (profileKey has
// already rejected any other format).
func (h *serveHandler) profile(id string, r *http.Request) serveEntry {
	suite, err := h.observe(id, false, h.opts.exemplars)
	if err != nil {
		return fail(http.StatusInternalServerError, "observe %s: %v", id, err)
	}
	var b bytes.Buffer
	if r.URL.Query().Get("format") == "pprof" {
		if err := suite.Profile.WritePprof(&b); err != nil {
			return fail(http.StatusInternalServerError, "profile %s: %v", id, err)
		}
		return entry(b.Bytes(), "application/octet-stream")
	}
	if err := suite.Profile.WriteFolded(&b); err != nil {
		return fail(http.StatusInternalServerError, "profile %s: %v", id, err)
	}
	return entry(b.Bytes(), "text/plain; charset=utf-8")
}

// exemplars serves one scale probe's tail-biased request lifecycles:
// per latency window, the K exemplar requests with every phase of their
// lifetime (wire, RTO, queue, CPU, disk wait, disk) — the raw material
// behind the audit's per-request checks.
func (h *serveHandler) exemplars(id string, _ *http.Request) serveEntry {
	if !slices.Contains(core.AuditableIDs(), id) {
		return fail(http.StatusNotFound, "%q has no exemplar instrumentation (instrumented: %v)",
			id, core.AuditableIDs())
	}
	suite, err := h.observe(id, true, h.exemplarK())
	if err != nil {
		return fail(http.StatusInternalServerError, "observe %s: %v", id, err)
	}
	type runExemplars struct {
		Experiment string               `json:"experiment"`
		System     string               `json:"system"`
		ExemplarK  int                  `json:"exemplar_k"`
		WindowNs   int64                `json:"window_ns"`
		Dropped    int64                `json:"dropped"`
		Windows    []obs.ExemplarWindow `json:"windows"`
	}
	out := []runExemplars{}
	for _, o := range suite.Observations {
		for _, run := range o.Runs {
			if run.LatencyHist == nil {
				continue
			}
			out = append(out, runExemplars{
				Experiment: o.ID, System: run.Label,
				ExemplarK: h.exemplarK(), WindowNs: int64(h.opts.window),
				Dropped: run.ExemplarDrops, Windows: run.Exemplars,
			})
		}
	}
	body, _ := json.MarshalIndent(out, "", "  ")
	return entry(append(body, '\n'), "application/json")
}

// audit serves one scale probe's queueing-law verdict: the same reports
// the audit CLI command produces, violations ranked worst-first.
func (h *serveHandler) audit(id string, _ *http.Request) serveEntry {
	if !slices.Contains(core.AuditableIDs(), id) {
		return fail(http.StatusNotFound, "no audit for %q (auditable: %v)", id, core.AuditableIDs())
	}
	ao, err := core.Audit(h.cfg, id, core.ObserveOpts{
		Procs: h.opts.procs, Clients: h.opts.clients, Nfsd: h.opts.nfsd,
		Window: h.opts.window, ExemplarK: h.exemplarK(),
	})
	if err != nil {
		return fail(http.StatusInternalServerError, "audit %s: %v", id, err)
	}
	body, _ := json.MarshalIndent(map[string]any{
		"id": ao.ID, "title": ao.Title, "ok": ao.OK(), "reports": ao.Reports,
	}, "", "  ")
	return entry(append(body, '\n'), "application/json")
}

// baselineDiff re-runs the committed baseline's probes with its recorded
// seed and returns the comparison as JSON — the baseline-check gate as
// a live endpoint.
func (h *serveHandler) baselineDiff() serveEntry {
	data, err := h.readFile(h.opts.baseline)
	if err != nil {
		return fail(http.StatusNotFound, "baseline: %v", err)
	}
	base, err := baseline.Load(data)
	if err != nil {
		return fail(http.StatusInternalServerError, "baseline: %v", err)
	}
	cfg := h.cfg
	cfg.Seed = base.Seed
	suite, err := h.runner.Observe(cfg, base.IDs, core.ObserveOpts{})
	if err != nil {
		return fail(http.StatusInternalServerError, "observe: %v", err)
	}
	cur := baseline.FromSuite(base.IDs, cfg.Seed, suite)
	res := baseline.Compare(base, cur, h.opts.tol)
	body, _ := json.MarshalIndent(map[string]any{
		"baseline":   h.opts.baseline,
		"seed":       base.Seed,
		"compared":   res.Compared,
		"ok":         res.OK(),
		"violations": res.Violations,
	}, "", "  ")
	return entry(append(body, '\n'), "application/json")
}

// serve runs the observability server until the listener fails (or the
// process is interrupted). The bound address is printed first, so
// scripts using -addr 127.0.0.1:0 can parse the chosen port.
func (a *App) serve(cfg core.Config, runner *core.Runner, o cmdOpts) int {
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		fmt.Fprintln(a.Stderr, "pentiumbench:", err)
		return 1
	}
	fmt.Fprintf(a.Stdout, "serving on http://%s\n", ln.Addr())
	srv := &http.Server{Handler: newServeHandler(cfg, runner, o, a.ReadFile)}
	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(a.Stderr, "pentiumbench:", err)
		return 1
	}
	return 0
}
