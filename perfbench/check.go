package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/core"
	"repro/internal/nfsserver"
	"repro/internal/osprofile"
)

// checker counts output checks. Every check is one attempted op; a
// mismatch is one failed op, named on the output, never a crash. It is
// safe for concurrent use (serve checks from its connection goroutines).
type checker struct {
	mu        sync.Mutex
	w         io.Writer
	attempted int64
	failed    int64
}

// maxNamedFailures bounds how many failures are printed one per line; the
// counts stay exact past it.
const maxNamedFailures = 20

func newChecker(w io.Writer) *checker { return &checker{w: w} }

// check counts one op and names it when ok is false.
func (c *checker) check(ok bool, format string, args ...any) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if !ok {
		c.failed++
		if c.failed <= maxNamedFailures {
			fmt.Fprintf(c.w, "fail: "+format+"\n", args...)
		}
	}
	return ok
}

func (c *checker) counts() (attempted, failed int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempted, c.failed
}

// goldenSeed is the seed golden.json was recorded with: the model's
// default seed, the one EXPERIMENTS.md uses.
const goldenSeed = 1

// golden holds the recorded outputs of the golden seed: the SHA-256 of
// each exhibit's rendered `run all` block, the modelled columns of each
// scale point, and the SHA-256 of each cold serve body.
type golden struct {
	Seed     uint64            `json:"seed"`
	Exhibits map[string]string `json:"exhibits"`
	Scale    map[string]string `json:"scale"`
	Serve    map[string]string `json:"serve"`
}

//go:embed golden.json
var goldenJSON []byte

// loadGolden returns the golden record when seed is the golden seed, and
// an empty one otherwise: other seeds are held to the invariants alone.
func loadGolden(seed uint64) (*golden, error) {
	if seed != goldenSeed {
		return &golden{}, nil
	}
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return &g, nil
}

// refs checks digests against expected values. With a golden table every
// key must match it; without one, the first observation of a key becomes
// the reference every later observation must repeat (determinism).
type refs struct {
	want  map[string]string
	fixed bool
}

func newRefs(gold map[string]string) *refs {
	if gold != nil {
		return &refs{want: gold, fixed: true}
	}
	return &refs{want: map[string]string{}}
}

func (r *refs) check(c *checker, what, key, got string) bool {
	want, ok := r.want[key]
	if !ok && !r.fixed {
		r.want[key] = got
		return c.check(true, "")
	}
	return c.check(ok && got == want, "%s %s: got %.16s, want %.16s", what, key, got, want)
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// exhibitBlocks splits `run all` output into one block per experiment:
// report.Render starts each with a "<ID> — <title>" line, and the command
// separates consecutive blocks with one blank line. A missing header is
// an error, counted as a failure by the caller.
func exhibitBlocks(out []byte, exps []*core.Experiment) (map[string][]byte, error) {
	starts := make([]int, len(exps)+1)
	pos := 0
	for i, e := range exps {
		head := []byte(e.ID + " — " + e.Title + "\n")
		at := -1
		if i == 0 && bytes.HasPrefix(out, head) {
			at = 0
		} else if j := bytes.Index(out[pos:], append([]byte("\n\n"), head...)); j >= 0 {
			at = pos + j + 2
		}
		if at < 0 {
			return nil, fmt.Errorf("no block for %s", e.ID)
		}
		starts[i], pos = at, at
	}
	starts[len(exps)] = len(out) + 1
	blocks := make(map[string][]byte, len(exps))
	for i, e := range exps {
		blocks[e.ID] = out[starts[i] : starts[i+1]-1]
	}
	return blocks, nil
}

// checkRunAll checks one rendered `run all` output block by block.
func checkRunAll(c *checker, r *refs, out []byte, exps []*core.Experiment) {
	blocks, err := exhibitBlocks(out, exps)
	if !c.check(err == nil, "run all output: %v", err) {
		return
	}
	for _, e := range exps {
		r.check(c, "exhibit", e.ID, digest(blocks[e.ID]))
	}
}

// scaleClients is the S1/S2 client sweep and scaleNfsd its worker-slot
// count (internal/core/scale.go).
var scaleClients = []int{10, 100, 1_000, 10_000, 100_000, 1_000_000}

const scaleNfsd = 8

// scalePointKey names one sweep point.
func scalePointKey(p *osprofile.Profile, clients int) string {
	return fmt.Sprintf("%s/%d", p, clients)
}

// scaleColumns is a point's modelled columns: every counter and exact
// latency figure the `scale` table and the S1/S2 exhibits derive from.
func scaleColumns(r *nfsserver.Result) string {
	l := r.Ledger
	return fmt.Sprintf("arr=%d att=%d done=%d retx=%d drop=%d shed=%d elapsed=%d busy=%d "+
		"ledger=%d/%d/%d/%d/%d/%d n=%d sum=%d p50=%d p99=%d p999=%d",
		r.Arrivals, r.Attempts, r.Completed, r.Retransmits, r.QueueDrops, r.Shed,
		r.Elapsed, r.Busy, l.Wire, l.RTO, l.QueueWait, l.CPU, l.DiskWait, l.DiskTime,
		r.Hist.N(), r.Hist.Sum(), r.Quantile(0.5), r.Quantile(0.99), r.Quantile(0.999))
}

// checkScalePoint checks one point: its ledger must sum to its latency
// histogram exactly, and its columns must match the reference.
func checkScalePoint(c *checker, r *refs, key string, res *nfsserver.Result) {
	c.check(int64(res.Ledger.Sum()) == res.Hist.Sum(), "scale %s: ledger sum %d != histogram sum %d",
		key, res.Ledger.Sum(), res.Hist.Sum())
	r.check(c, "scale", key, scaleColumns(res))
}

// recordGolden computes the golden seed's outputs through the user entry
// points — `run all` via cli.App.Execute, the sweep via core.ScaleRun, the
// cold serve bodies via a fresh `serve` — and writes them to path.
func recordGolden(path string) error {
	g := golden{Seed: goldenSeed, Exhibits: map[string]string{},
		Scale: map[string]string{}, Serve: map[string]string{}}
	out, err := executeRunAll(goldenSeed, 0)
	if err != nil {
		return err
	}
	blocks, err := exhibitBlocks(out, core.All())
	if err != nil {
		return err
	}
	for id, b := range blocks {
		g.Exhibits[id] = digest(b)
	}
	cfg := suiteConfig(goldenSeed)
	for _, p := range cfg.Profiles {
		for _, n := range scaleClients {
			g.Scale[scalePointKey(p, n)] = scaleColumns(core.ScaleRun(cfg, p, n, scaleNfsd, nil))
		}
	}
	srv, err := startServer(goldenSeed, 0)
	if err != nil {
		return err
	}
	defer srv.close()
	for _, ep := range coldEndpoints {
		res := srv.clients[0].get(ep, "")
		if res.err != nil || res.status != 200 {
			return fmt.Errorf("golden serve %s: status %d, %v", ep, res.status, res.err)
		}
		g.Serve[ep] = digest(res.body)
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
