package cli

import (
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
)

// fuzzHandler is the one serve handler FuzzServeRequest sends every
// input to: default flags, no baseline file.
var fuzzHandler = sync.OnceValue(func() *serveHandler {
	return sharedRunHandler(cmdOpts{window: sim.Duration(100 * time.Millisecond)})
})

// FuzzServeRequest sends an arbitrary method, path, query and
// If-None-Match value to the serve handler. It must never panic and
// must answer with a status from a fixed set; every 200 answer to a GET
// carries the SHA-256 of its body as its ETag; and a refused request —
// a redirect, a bad format, an unknown path or id, a method other than
// GET and HEAD — computes nothing and runs no model.
func FuzzServeRequest(f *testing.F) {
	f.Add("GET", "/api/experiments", "", "")
	f.Add("GET", "/api/experiments", "", "*")
	f.Add("HEAD", "/api/metrics/T2", "format=json", `"sha256-00"`)
	f.Add("GET", "/api/metrics/X1", "", "")
	f.Add("GET", "/api//trace/../metrics/T2", "", "")
	f.Add("GET", "/api/profile/T2", "format=bogus", "")
	f.Add("POST", "/api/audit/L1", "", "")
	f.Add("GET", "/api/baseline/diff", "tol=nan", "")
	f.Fuzz(func(t *testing.T, method, path, query, inm string) {
		h := fuzzHandler()
		computes, runs := h.computes.Load(), h.exhibits.Stats().Misses
		r := &http.Request{
			Method:     method,
			URL:        &url.URL{Path: path, RawQuery: query},
			Proto:      "HTTP/1.1",
			ProtoMajor: 1,
			ProtoMinor: 1,
			Header:     http.Header{},
			Host:       "example.com",
			RequestURI: path,
		}
		if inm != "" {
			r.Header.Set("If-None-Match", inm)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		switch rec.Code {
		case http.StatusOK, http.StatusNotModified:
		case http.StatusMovedPermanently, http.StatusBadRequest, http.StatusNotFound, http.StatusMethodNotAllowed:
			if h.computes.Load() != computes || h.exhibits.Stats().Misses != runs {
				t.Fatalf("%s %q?%q: a %d computed a response or ran a model", method, path, query, rec.Code)
			}
		default:
			t.Fatalf("%s %q?%q: status %d: %s", method, path, query, rec.Code, rec.Body)
		}
		if rec.Code == http.StatusOK && method == http.MethodGet {
			sum := sha256.Sum256(rec.Body.Bytes())
			if want := `"sha256-` + hex.EncodeToString(sum[:]) + `"`; rec.Header().Get("ETag") != want {
				t.Fatalf("GET %q?%q: ETag %q, body hashes to %s", path, query, rec.Header().Get("ETag"), want)
			}
		}
	})
}
