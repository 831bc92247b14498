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
	"time"

	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/sim"
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
	// keyOf builds a response's -memo store key (serveKeys); nil without
	// a store.
	keyOf func(endpoint string) []byte
	table *memo.Table[string, serveEntry]
	// exhibits holds, per shared run of an id, the bodies of every API
	// view that run serves (see exhibit); the response cache's computes
	// read it. Its misses count model runs.
	exhibits *memo.Table[sharedRun, map[string]serveEntry]
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
		exhibits: memo.NewTable[sharedRun, map[string]serveEntry](),
		mux:      http.NewServeMux(),
	}
	if cfg.Memo != nil {
		h.keyOf = serveKeys(cfg, opts)
	}
	h.mux.HandleFunc("/api/experiments", h.handle(h.experiments))
	for name, v := range views {
		if v.api != nil {
			h.mux.HandleFunc("/api/"+name+"/", h.view(name, v))
		}
	}
	h.mux.HandleFunc("/api/baseline/diff", h.keyed(h.baselineDiff))
	return h
}

func (h *serveHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

// handle wraps an endpoint computation with the cache, the ETag, and the
// 304 path, caching under the request path alone: the endpoints it
// serves ignore the query string, so a query must not split the cache.
func (h *serveHandler) handle(compute func() serveEntry) http.HandlerFunc {
	return h.keyed(func(r *http.Request) (string, func() serveEntry, *serveEntry) {
		return r.URL.Path, compute, nil
	})
}

// keyed is handle with the cache key chosen per request: resolve names
// the response a request asks for and the computation that makes it, so
// requests for the same body share one entry, or refuses the request
// with an error response that is sent without touching the cache.
func (h *serveHandler) keyed(resolve func(*http.Request) (string, func() serveEntry, *serveEntry)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		key, compute, e := resolve(r)
		if e == nil {
			v := h.table.Do(key, func() serveEntry {
				h.computes.Add(1)
				return h.stored(key, compute)
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

// serveKeys encodes, once per server, the key material its stored
// responses share — the serve schema, the seed, the run count, the
// probe flags and the full personality set, as the result memo keys it
// — and returns the function that splices one endpoint's cache key into
// it: the compact JSON object, keys sorted,
//
//	{"clients":…,"endpoint":…,"exemplars":…,"nfsd":…,"procs":…,"profiles":[…],"runs":…,"schema":…,"seed":…,"window":…}
//
// A key's SHA-256 names its store entry, so these bytes are pinned
// (TestServeMemoKeyPinned). serveKeys returns nil if the personalities
// cannot be serialized, which just leaves the responses unstored.
func serveKeys(cfg core.Config, o cmdOpts) func(endpoint string) []byte {
	prof, err := json.Marshal(cfg.Profiles)
	if err != nil {
		return nil
	}
	schema, _ := json.Marshal(serveSchema) // a string always encodes
	head := fmt.Appendf(nil, `{"clients":%d,"endpoint":`, o.clients)
	tail := fmt.Appendf(nil, `,"exemplars":%d,"nfsd":%d,"procs":%d,"profiles":%s,"runs":%d,"schema":%s,"seed":%d,"window":%d}`,
		o.exemplars, o.nfsd, o.procs, prof, cfg.Runs, schema, cfg.Seed, int64(o.window))
	return func(endpoint string) []byte {
		quoted, _ := json.Marshal(endpoint)
		return slices.Concat(head, quoted, tail)
	}
}

// stored is the persistent layer: with -memo attached, successful
// responses are content-addressed on disk under the endpoint's cache
// key spliced into the server's key material (serveKeys), so a
// restarted server is warm from its first request.
func (h *serveHandler) stored(key string, compute func() serveEntry) serveEntry {
	if h.keyOf == nil {
		return compute()
	}
	mat := h.keyOf(key)
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
	return serveEntry{Body: append(body, '\n'), Type: jsonType, Code: code}
}

// view serves GET /api/<name>/<id>. Only a view offering the API more
// than one format reads the query. An unknown format is a 400 and an id
// outside the view's set a 404 naming that set, both refused before the
// cache. The cache key is the path, plus the format when it is not the
// default, so "" and the default share one entry. Every body comes from
// the shared run that serves the view (exhibit).
func (h *serveHandler) view(name string, v *view) http.HandlerFunc {
	prefix := "/api/" + name + "/"
	ids := v.ids()
	return h.keyed(func(r *http.Request) (string, func() serveEntry, *serveEntry) {
		req := ""
		if len(v.api) > 1 {
			req = r.URL.Query().Get("format")
		}
		fname, err := pick(name, v.api, req)
		if err != nil {
			e := fail(http.StatusBadRequest, "%v", err)
			return "", nil, &e
		}
		id := strings.TrimPrefix(r.URL.Path, prefix)
		if !slices.Contains(ids, id) {
			e := fail(http.StatusNotFound, "%v", v.uncovered(id))
			return "", nil, &e
		}
		key := apiKey(r.URL.Path, v, fname)
		return key, func() serveEntry {
			return h.exhibit(id, name)[key]
		}, nil
	})
}

// apiKey is the response cache key of a view body: its path, plus the
// format when it is not the view's API default.
func apiKey(path string, v *view, fname string) string {
	if fname != v.api[0] {
		return path + "?format=" + fname
	}
	return path
}

// body renders d in one format as a response, or reports err as a 500.
func body(name, id, fname string, d *viewData, err error) serveEntry {
	f := views[name].formats[fname]
	var b bytes.Buffer
	if err == nil {
		err = f.render(&b, d)
	}
	if err != nil {
		return fail(http.StatusInternalServerError, "%s %s: %v", name, id, err)
	}
	return entry(b.Bytes(), f.contentType)
}

// A sharedRun is one run of an id carrying the recorders (sampler
// width, reservoir size) its views need.
type sharedRun struct {
	id        string
	window    sim.Duration
	exemplarK int
}

// runGroup is the views one shared run serves, and the options it runs
// under.
type runGroup struct {
	opts  core.ObserveOpts
	views []string
}

// groups splits the API views of an id into as few shared runs as
// core.Covers allows. That is one run, unless -exemplars with a
// -window other than 100 ms gives the views that sample reservoir
// windows of another width than the views that do not.
func (h *serveHandler) groups(id string) []runGroup {
	var names []string
	for name, v := range views {
		if v.api != nil && slices.Contains(v.ids(), id) {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	// join widens g's run to record what the named view needs too, or
	// reports false when one run cannot serve all of g's views and it.
	join := func(g runGroup, name string) (runGroup, bool) {
		need := views[name].opts(h.opts)
		if need.Window > 0 {
			g.opts.Window = need.Window
		}
		if need.ExemplarK > 0 {
			g.opts.ExemplarK = need.ExemplarK
		}
		g.views = append(slices.Clone(g.views), name)
		for _, n := range g.views {
			if !core.Covers(id, g.opts, views[n].opts(h.opts)) {
				return g, false
			}
		}
		return g, true
	}
	var groups []runGroup
next:
	for _, name := range names {
		for i := range groups {
			if g, ok := join(groups[i], name); ok {
				groups[i] = g
				continue next
			}
		}
		groups = append(groups, runGroup{views[name].opts(h.opts), []string{name}})
	}
	return groups
}

// exhibit returns the bodies of the shared run that serves the named
// view of an id, keyed as the response cache keys them. The run renders
// every body of the views it serves at once, each view its projection,
// and is then dropped: the bodies are much smaller than the run.
func (h *serveHandler) exhibit(id, view string) map[string]serveEntry {
	groups := h.groups(id)
	g := groups[slices.IndexFunc(groups, func(g runGroup) bool { return slices.Contains(g.views, view) })]
	return h.exhibits.Do(sharedRun{id, g.opts.Window, g.opts.ExemplarK}, func() map[string]serveEntry {
		bodies := make(map[string]serveEntry)
		runs, err := h.runner.ObserveRuns(h.cfg, []string{id}, g.opts)
		for _, name := range g.views {
			v := views[name]
			var d *viewData
			derr := err
			if err == nil {
				d, derr = v.projectFor(runs, h.opts)
			}
			for _, fname := range v.api {
				bodies[apiKey("/api/"+name+"/"+id, v, fname)] = body(name, id, fname, d, derr)
			}
		}
		return bodies
	})
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
	var b bytes.Buffer
	writeJSON(&b, out)
	return entry(b.Bytes(), jsonType)
}

// baselineDiff re-runs the baseline file's probes with its recorded
// seed and returns the comparison as JSON — the baseline-check gate as
// a live endpoint. Every request reads the file, and the response is
// cached under the SHA-256 of its bytes and -tol, so an edited baseline
// is diffed afresh; a missing file is a 404 that is not cached.
func (h *serveHandler) baselineDiff(r *http.Request) (string, func() serveEntry, *serveEntry) {
	data, err := h.readFile(h.opts.baseline)
	if err != nil {
		e := fail(http.StatusNotFound, "baseline: %v", err)
		return "", nil, &e
	}
	sum := sha256.Sum256(data)
	key := fmt.Sprintf("%s?sha256=%x&tol=%v", r.URL.Path, sum, h.opts.tol)
	return key, func() serveEntry {
		base, res, err := checkBaseline(h.cfg, h.runner, data, h.opts.tol)
		if err != nil {
			return fail(http.StatusInternalServerError, "baseline: %v", err)
		}
		var b bytes.Buffer
		writeJSON(&b, map[string]any{
			"baseline":   h.opts.baseline,
			"seed":       base.Seed,
			"compared":   res.Compared,
			"ok":         res.OK(),
			"violations": res.Violations,
		})
		return entry(b.Bytes(), jsonType)
	}, nil
}

// serveReadHeaderTimeout bounds the wait for a request's header, so a
// client that connects and stalls cannot hold a goroutine and a socket for
// good. IdleTimeout and ReadTimeout stay unset: the header clock starts
// only when a keep-alive connection's next request begins to arrive.
const serveReadHeaderTimeout = 10 * time.Second

// newServer builds the http.Server the serve command runs.
func newServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: serveReadHeaderTimeout}
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
	srv := newServer(newServeHandler(cfg, runner, o, a.ReadFile))
	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(a.Stderr, "pentiumbench:", err)
		return 1
	}
	return 0
}
