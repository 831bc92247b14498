package cli

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// N clients hitting the same cold endpoint concurrently must observe
// exactly one computation (the memo table's single-flight) and identical
// SHA-256 ETags. Run under -race this also exercises the handler's
// concurrency safety.
func TestServeConcurrentColdRequestsSingleFlight(t *testing.T) {
	cfg := core.DefaultConfig()
	opts := cmdOpts{
		baseline: "base.json",
		window:   sim.Duration(100 * time.Millisecond),
		clients:  500,
	}
	h := newServeHandler(cfg, core.NewRunner(1), opts,
		func(path string) ([]byte, error) { return nil, http.ErrMissingFile })
	srv := httptest.NewServer(h)
	defer srv.Close()

	const n = 8
	var wg sync.WaitGroup
	etags := make([]string, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(srv.URL + "/api/exemplars/S1")
			if err != nil {
				return
			}
			resp.Body.Close()
			codes[i] = resp.StatusCode
			etags[i] = resp.Header.Get("ETag")
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("client %d: status %d", i, codes[i])
		}
		if etags[i] == "" || etags[i] != etags[0] {
			t.Fatalf("client %d: etag %q differs from %q", i, etags[i], etags[0])
		}
	}
	if got := h.computes.Load(); got != 1 {
		t.Fatalf("cold endpoint computed %d times under %d concurrent clients, want 1", got, n)
	}
}

// Only the profile endpoint reads the query string. Any other endpoint
// must serve every query from one cached body, and a bad profile format
// must be refused before the cache, leaving no entry behind.
func TestServeQueryDoesNotSplitCache(t *testing.T) {
	h := newServeHandler(core.DefaultConfig(), core.NewRunner(1), cmdOpts{clients: 500},
		func(path string) ([]byte, error) { return nil, http.ErrMissingFile })
	srv := httptest.NewServer(h)
	defer srv.Close()
	status := func(url string) (int, string) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode, resp.Header.Get("ETag")
	}

	var etag string
	for i := 0; i < 5; i++ {
		code, tag := status(fmt.Sprintf("%s/api/metrics/F12?format=x%d", srv.URL, i))
		if code != http.StatusOK || (etag != "" && tag != etag) {
			t.Fatalf("metrics?format=x%d: status %d, ETag %q (first %q)", i, code, tag, etag)
		}
		etag = tag
	}
	if got := h.computes.Load(); got != 1 {
		t.Fatalf("5 query strings on one metrics endpoint computed %d times, want 1", got)
	}

	for _, f := range []string{"yaml", "x", "FOLDED"} {
		if code, _ := status(srv.URL + "/api/profile/F12?format=" + f); code != http.StatusBadRequest {
			t.Fatalf("profile?format=%s: status %d, want 400", f, code)
		}
	}
	if got := h.table.Stats().Misses; got != 1 {
		t.Fatalf("cache holds %d entries after bad profile formats, want 1 (the metrics body)", got)
	}

	_, plain := status(srv.URL + "/api/profile/F12")
	_, folded := status(srv.URL + "/api/profile/F12?format=folded")
	if plain == "" || plain != folded {
		t.Fatalf("default and folded profile ETags differ: %q vs %q", plain, folded)
	}
	if got := h.computes.Load(); got != 2 {
		t.Fatalf("default and folded profile computed %d bodies in total, want 1", got-1)
	}
}
