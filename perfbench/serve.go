package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cli"
)

// coldEndpoints is the serve cold phase: one GET each on a fresh server.
var coldEndpoints = []string{
	"metrics/S1", "metrics/F1", "metrics/F12",
	"timeseries/S1", "timeseries/F1",
	"trace/S1", "trace/F1",
	"profile/S1", "profile/F12",
	"exemplars/S1", "audit/S1", "experiments",
}

// warmMix is the scrape-like warm traffic, weights in per-mille.
var warmMix = []struct {
	ep     string
	weight int
}{
	{"metrics/S1", 600}, {"metrics/F1", 200}, {"metrics/F12", 100},
	{"experiments", 95}, {"trace/S1", 5},
}

const (
	// warmRate is the open-loop arrival rate: about a quarter of the
	// mix's closed-loop capacity on a 2-CPU host.
	warmRate = 5000
	// warmSeconds is the open-loop phase of each round.
	warmSeconds = 1.5
	// closedRequests is the closed-loop pass of each round.
	closedRequests = 4000
	// roundSeconds is the nominal length of a round. A run does
	// --seconds/roundSeconds rounds whatever the speed: each round leaves
	// its server's cache live (serve has no shutdown), so a time-bounded
	// loop would charge a faster build more memory.
	roundSeconds = 4
	// requestTimeout bounds one request; a failed request is recorded
	// at this latency, over any latency limit the benchmark could set.
	requestTimeout = 10 * time.Second
)

// arrival is one scheduled warm request.
type arrival struct {
	at   time.Duration // due time from the start of the phase
	ep   string
	cond bool // carries If-None-Match with the endpoint's ETag
}

// makeSchedule draws the whole warm schedule from the seed before any
// request is sent: Poisson gaps at warmRate, endpoints by warmMix, and a
// fair coin for the conditional flag.
func makeSchedule(seed uint64, n int) []arrival {
	rng := rand.New(rand.NewPCG(seed, 0x5e4e))
	out := make([]arrival, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / warmRate
		pick := rng.IntN(1000)
		ep := warmMix[len(warmMix)-1].ep
		for _, m := range warmMix {
			if pick < m.weight {
				ep = m.ep
				break
			}
			pick -= m.weight
		}
		out[i] = arrival{at: time.Duration(t * 1e9), ep: ep, cond: rng.IntN(2) == 0}
	}
	return out
}

// server is one `pentiumbench serve` instance started through
// cli.App.Execute, with one keep-alive connection per load worker.
type server struct {
	clients []*client
}

// startServer runs `pentiumbench -seed S -j N -addr 127.0.0.1:0 serve`
// and waits for its listener. The serve command has no shutdown hook:
// its goroutine keeps the listener until the driver process exits.
func startServer(seed uint64, workers int) (*server, error) {
	w := &addrWriter{ready: make(chan string, 1)}
	args := []string{"-seed", strconv.FormatUint(seed, 10), "-j", strconv.Itoa(workers),
		"-addr", "127.0.0.1:0", "serve"}
	exited := make(chan int, 1)
	go func() { exited <- cli.NewApp(w, os.Stderr).Execute(args) }()
	select {
	case addr := <-w.ready:
		s := &server{}
		for range max(workers, 1) {
			s.clients = append(s.clients, newClient(addr))
		}
		return s, nil
	case code := <-exited:
		return nil, fmt.Errorf("serve exited with code %d", code)
	case <-time.After(requestTimeout):
		return nil, fmt.Errorf("serve did not print its address")
	}
}

// close drops the load connections so the server's connection
// goroutines end.
func (s *server) close() {
	for _, c := range s.clients {
		c.hc.CloseIdleConnections()
	}
}

// addrWriter captures the "serving on http://<addr>" line serve prints
// first; anything after it is discarded.
type addrWriter struct {
	mu    sync.Mutex
	buf   []byte
	sent  bool
	ready chan string // buffered 1: receives the base URL once
}

func (w *addrWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sent {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	if i := bytes.IndexByte(w.buf, '\n'); i >= 0 {
		w.sent = true
		w.ready <- strings.TrimPrefix(string(w.buf[:i]), "serving on ")
	}
	return len(p), nil
}

// client is one keep-alive HTTP connection. Its body buffer is reused,
// so a response's body is valid until the client's next request.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: requestTimeout}, base: base}
}

type response struct {
	status int
	etag   string
	body   []byte
	err    error
}

// get fetches /api/<ep>, with If-None-Match when inm is not empty.
func (c *client) get(ep, inm string) response {
	req, err := http.NewRequest(http.MethodGet, c.base+"/api/"+ep, nil)
	if err != nil {
		return response{err: err}
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return response{err: err}
	}
	defer resp.Body.Close()
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	return response{status: resp.StatusCode, etag: resp.Header.Get("ETag"), body: c.buf.Bytes(), err: err}
}

// coldBody is one endpoint's cold response, the reference every warm
// response to it is checked against.
type coldBody struct {
	etag string
	body []byte
}

// coldPhase sends one GET per cold endpoint, in order, and checks each:
// status 200, an ETag equal to the body's SHA-256, and the body digest
// against the reference. It returns the bodies and the latencies.
func coldPhase(s *server, c *checker, ref *refs, tr *tracer, parent int) (map[string]coldBody, []time.Duration) {
	bodies := make(map[string]coldBody, len(coldEndpoints))
	lats := make([]time.Duration, len(coldEndpoints))
	for i, ep := range coldEndpoints {
		sp := tr.begin(parent, 0, "serve", "GET "+ep)
		t0 := time.Now()
		res := s.clients[0].get(ep, "")
		lats[i] = time.Since(t0)
		tr.end(sp)
		if !c.check(res.err == nil && res.status == http.StatusOK,
			"serve cold %s: status %d, %v", ep, res.status, res.err) {
			continue
		}
		sum := digest(res.body)
		c.check(res.etag == `"sha256-`+sum+`"`, "serve cold %s: ETag %s is not the body hash", ep, res.etag)
		ref.check(c, "serve body", ep, sum)
		bodies[ep] = coldBody{etag: res.etag, body: append([]byte(nil), res.body...)}
	}
	return bodies, lats
}

// outcome is one warm request's measurement.
type outcome struct {
	lat, late time.Duration // from due time to reply read, and to send
	status    int
	bytes     int
}

// checkWarm checks a warm reply: a conditional request must get an
// empty 304 carrying the cold ETag; any other must get 200 with the cold
// body and ETag, so the ETag never rolls and a 304 answers only a
// matching If-None-Match.
func checkWarm(c *checker, a arrival, res response, cold map[string]coldBody) bool {
	ref, known := cold[a.ep]
	switch {
	case res.err != nil || !known:
		return c.check(false, "serve warm %s: %v (cold reference missing: %v)", a.ep, res.err, !known)
	case a.cond:
		return c.check(res.status == http.StatusNotModified && len(res.body) == 0 && res.etag == ref.etag,
			"serve warm %s with If-None-Match: status %d, %d bytes, ETag %s", a.ep, res.status, len(res.body), res.etag)
	default:
		return c.check(res.status == http.StatusOK && res.etag == ref.etag && bytes.Equal(res.body, ref.body),
			"serve warm %s: status %d, ETag %s, body equal %v", a.ep, res.status, res.etag, bytes.Equal(res.body, ref.body))
	}
}

// drive sends sched over the server's connections, one worker each. In
// open-loop mode a request is due at start+at and is timed from then, so
// a stalled reply delays and charges every request queued behind it; in
// closed-loop mode each worker sends its next request as soon as its
// previous reply is read.
func drive(s *server, sched []arrival, open bool, c *checker, cold map[string]coldBody, tr *tracer, parent int) []outcome {
	out := make([]outcome, len(sched))
	var next atomic.Int64
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for w, cl := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				a := sched[i]
				due := time.Now()
				if open {
					due = start.Add(a.at)
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
				}
				inm := ""
				if a.cond {
					inm = cold[a.ep].etag
				}
				sp := tr.begin(parent, 1+w, "serve", "GET "+a.ep)
				sent := time.Now()
				res := cl.get(a.ep, inm)
				done := time.Now()
				tr.end(sp)
				o := outcome{lat: done.Sub(due), late: sent.Sub(due), status: res.status, bytes: len(res.body)}
				if !checkWarm(c, a, res, cold) {
					o.lat = max(o.lat, requestTimeout)
				}
				out[i] = o
			}
		}()
	}
	wg.Wait()
	return out
}

func setupServe(e *env) (func(), error) {
	s, err := startServer(e.seed, e.workers)
	if err != nil {
		return nil, err
	}
	return s.close, nil
}

// runServe times rounds on fresh servers: the 12-endpoint cold phase,
// the open-loop warm phase at warmRate, then the closed-loop pass. Units
// are rounds (wall_s is the cold phase), ops are open-loop latencies.
func runServe(e *env) error {
	sched := makeSchedule(e.seed, int(warmRate*warmSeconds))
	ref := newRefs(e.gold.Serve)
	var late, mbs, rps []float64
	rounds := max(minUnits, int(e.seconds/roundSeconds))
	for range rounds {
		s, err := startServer(e.seed, e.workers)
		if err != nil {
			return err
		}
		m := startMeter()
		cold, lats := coldPhase(s, e.chk, ref, nil, -1)
		warm := drive(s, sched, true, e.chk, cold, nil, -1)
		t0 := time.Now()
		closed := drive(s, sched[:closedRequests], false, e.chk, cold, nil, -1)
		closedWall := time.Since(t0)
		m.stop(&e.rec)
		s.close()
		var coldSum time.Duration
		for _, d := range lats {
			coldSum += d
		}
		e.rec.walls = append(e.rec.walls, coldSum.Seconds())
		for _, o := range warm {
			e.rec.ops = append(e.rec.ops, ms(o.lat))
			late = append(late, ms(o.late))
		}
		bytes := 0
		for _, o := range closed {
			bytes += o.bytes
		}
		mbs = append(mbs, float64(bytes)/1e6/closedWall.Seconds())
		rps = append(rps, float64(len(closed))/closedWall.Seconds())
	}
	printSummary(e.out, "serve_cold_s", "s", e.rec.walls)
	sorted := sortedCopy(e.rec.ops)
	fmt.Fprintf(e.out, "serve_p50_ms %.4g ms, serve_p99_ms %.4g ms (n=%d at %d req/s)\n",
		quantile(sorted, 0.5), quantile(sorted, 0.99), len(sorted), warmRate)
	printSummary(e.out, "serve_mb_s", "MB/s (closed loop)", mbs)
	printSummary(e.out, "serve_rps", "req/s (closed loop)", rps)
	printSummary(e.out, "serve.gen_late_ms", "ms", late)
	return nil
}
