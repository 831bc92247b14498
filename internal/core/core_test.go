package core

import (
	"encoding/json"
	"testing"

	"repro/internal/osprofile"
	"repro/internal/stats"
)

// runValues returns a sample's observations in run order, read back
// through the JSON encoding the memo store keeps, which round-trips every
// float exactly.
func runValues(t *testing.T, s *stats.Sample) []float64 {
	t.Helper()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var v []float64
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	return v
}

// smallConfig keeps suite-level tests quick: 5 runs, default systems.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Runs = 5
	return cfg
}

// TestRegistryValid checks the registry's invariants: unique IDs and
// runnable entries with their metadata.
func TestRegistryValid(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range registry {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		if e.Series == nil {
			t.Errorf("experiment %q has no Series", e.ID)
		}
		if e.ID == "" || e.Title == "" || e.Paper == "" {
			t.Errorf("experiment %q missing metadata", e.ID)
		}
	}
}

func TestRegistryCoversEveryExhibit(t *testing.T) {
	// Every table (2-7), every figure (1-13) and every DESIGN.md ablation
	// (A1-A6) must be present.
	want := []string{
		"T2", "T3", "T4", "T5", "T6", "T7",
		"F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9", "F10", "F11", "F12", "F13",
		"A1", "A2", "A3", "A4", "A5", "A6", "A7",
		"X1", "X2",
		"S1", "S2",
		"L1", "L2", "I1",
	}
	for _, id := range want {
		if _, ok := Lookup(id); !ok {
			t.Errorf("experiment %s missing from registry", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
}

func TestAllOrdering(t *testing.T) {
	ids := []string{}
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	if ids[0] != "T2" || ids[5] != "T7" || ids[6] != "F1" || ids[18] != "F13" || ids[19] != "A1" {
		t.Fatalf("presentation order wrong: %v", ids)
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, ok := Lookup("T99"); ok {
		t.Fatal("Lookup(T99) should fail")
	}
}

func TestLookupIndexMatchesRegistry(t *testing.T) {
	// The lazily built map must agree with a linear scan for every
	// registered ID and reject near-misses.
	for _, e := range registry {
		got, ok := Lookup(e.ID)
		if !ok || got != e {
			t.Errorf("Lookup(%q) = %v, %v; want the registered experiment", e.ID, got, ok)
		}
	}
	for _, id := range []string{"", "t2", "T", "T2 ", " F1", "F01x"} {
		if _, ok := Lookup(id); ok {
			t.Errorf("Lookup(%q) should fail", id)
		}
	}
}

func TestRankOrdersWellFormedIDs(t *testing.T) {
	ordered := []string{"T2", "T7", "F1", "F13", "A1", "A7", "X1", "X2"}
	for i := 1; i < len(ordered); i++ {
		if rank(ordered[i-1]) >= rank(ordered[i]) {
			t.Errorf("rank(%s)=%d not before rank(%s)=%d",
				ordered[i-1], rank(ordered[i-1]), ordered[i], rank(ordered[i]))
		}
	}
	// F10 must sort after F9 (numeric, not lexicographic).
	if rank("F9") >= rank("F10") {
		t.Error("F10 should rank after F9")
	}
}

func TestRankRejectsMalformedIDs(t *testing.T) {
	// Malformed IDs used to Sscanf to 0 and silently jump ahead of every
	// real exhibit; now they all rank last.
	for _, id := range []string{"", "T", "Tx", "T2b", "F-1", "Z3", "Q", "T 2"} {
		if got := rank(id); got != rankUnknown {
			t.Errorf("rank(%q) = %d, want rankUnknown (%d)", id, got, rankUnknown)
		}
	}
	if rank("T7") >= rankUnknown || rank("X2") >= rankUnknown {
		t.Error("well-formed IDs must rank before malformed ones")
	}
}

func TestTable2Result(t *testing.T) {
	e, _ := Lookup("T2")
	res := e.Run(smallConfig())
	if res.Kind != Table || len(res.Series) != 3 {
		t.Fatalf("T2 result malformed: kind=%v series=%d", res.Kind, len(res.Series))
	}
	for _, s := range res.Series {
		if s.Samples[0].N() != 5 {
			t.Errorf("%s: %d samples, want 5", s.Label, s.Samples[0].N())
		}
		exp, ok := res.ExpectationFor(s.Label)
		if !ok {
			t.Errorf("%s has no paper expectation", s.Label)
			continue
		}
		got := s.Samples[0].Mean()
		if got < exp.Mean*0.9 || got > exp.Mean*1.1 {
			t.Errorf("%s mean %.2f vs paper %.2f: off by >10%%", s.Label, got, exp.Mean)
		}
	}
}

func TestTableNormalization(t *testing.T) {
	e, _ := Lookup("T4")
	res := e.Run(smallConfig())
	means := make([]float64, len(res.Series))
	for i, s := range res.Series {
		means[i] = s.Samples[0].Mean()
	}
	norm := stats.Normalize(means, res.Direction)
	// Table 4 is bandwidth: Linux is the best (1.00).
	if norm[0] != 1 {
		t.Errorf("Linux should normalise to 1.00 in Table 4, got %.2f", norm[0])
	}
}

func TestFigure1Series(t *testing.T) {
	e, _ := Lookup("F1")
	res := e.Run(smallConfig())
	// Three ring curves plus the Solaris LIFO variant.
	if len(res.Series) != 4 {
		t.Fatalf("F1 should have 4 series, got %d", len(res.Series))
	}
	if res.FindSeries("Solaris-LIFO") == nil {
		t.Fatal("missing Solaris-LIFO series")
	}
	for _, s := range res.Series {
		if len(s.X) != len(s.Samples) || len(s.X) == 0 {
			t.Fatalf("series %s malformed", s.Label)
		}
	}
	// Landmarks at two processes. The tolerance accommodates the sampling
	// error of a 5-run sample with Solaris' 9% per-run noise.
	for label, want := range map[string]float64{
		"Linux 1.2.8": 55, "FreeBSD 2.0.5R": 80, "Solaris 2.4": 220,
	} {
		s := res.FindSeries(label)
		got := s.Samples[0].Mean()
		if got < want*0.85 || got > want*1.15 {
			t.Errorf("%s @2 procs = %.1f, want ~%.0f", label, got, want)
		}
	}
}

func TestMemoryFiguresSingleCurve(t *testing.T) {
	for _, id := range []string{"F2", "F3", "F4", "F5", "F6", "F7", "F8"} {
		e, _ := Lookup(id)
		res := e.Run(smallConfig())
		if len(res.Series) != 1 {
			t.Errorf("%s should be a single hardware curve, got %d series", id, len(res.Series))
		}
		if len(res.Series[0].X) < 20 {
			t.Errorf("%s sweep too sparse: %d points", id, len(res.Series[0].X))
		}
	}
}

func TestDeterministicResults(t *testing.T) {
	e, _ := Lookup("T5")
	cfg := smallConfig()
	a := e.Run(cfg)
	b := e.Run(cfg)
	for i := range a.Series {
		av, bv := runValues(t, a.Series[i].Samples[0]), runValues(t, b.Series[i].Samples[0])
		for j := range av {
			if av[j] != bv[j] {
				t.Fatalf("run not reproducible: %v vs %v", av[j], bv[j])
			}
		}
	}
	// A different seed gives different samples (same means, different
	// noise draws).
	cfg2 := cfg
	cfg2.Seed = 99
	c := e.Run(cfg2)
	if runValues(t, c.Series[0].Samples[0])[0] == runValues(t, a.Series[0].Samples[0])[0] {
		t.Fatal("different seeds should give different noise draws")
	}
}

func TestNoiseMatchesPaperStdDev(t *testing.T) {
	// With 20 runs, the Solaris TCP sample should be visibly noisy
	// (paper: 16.34%) and the Linux getpid sample nearly noiseless
	// (paper: 0.10%).
	cfg := DefaultConfig()
	t5, _ := Lookup("T5")
	res := t5.Run(cfg)
	sol := res.FindSeries("Solaris 2.4")
	if rel := sol.Samples[0].RelStdDev(); rel < 0.06 || rel > 0.30 {
		t.Errorf("Solaris TCP rel std dev = %.3f, want roughly 0.16", rel)
	}
	t2, _ := Lookup("T2")
	res2 := t2.Run(cfg)
	lin := res2.FindSeries("Linux 1.2.8")
	if rel := lin.Samples[0].RelStdDev(); rel > 0.01 {
		t.Errorf("Linux getpid rel std dev = %.4f, want ~0.001", rel)
	}
}

func TestFutureProfilesRunThroughHarness(t *testing.T) {
	cfg := smallConfig()
	cfg.Profiles = append(cfg.Profiles, osprofile.Linux1340())
	e, _ := Lookup("T2")
	res := e.Run(cfg)
	if len(res.Series) != 4 {
		t.Fatalf("expected 4 series with the future profile, got %d", len(res.Series))
	}
}

func TestAblationA1FlipsMemset(t *testing.T) {
	e, _ := Lookup("A1")
	res := e.Run(smallConfig())
	real := res.FindSeries("memset, no write-allocate (real P54C)")
	hypo := res.FindSeries("memset, write-allocate (hypothetical)")
	if real == nil || hypo == nil {
		t.Fatal("A1 series missing")
	}
	// Compare at a small (cached) size: the hypothetical cache must be
	// several times faster.
	if hypo.Samples[2].Mean() < 3*real.Samples[2].Mean() {
		t.Errorf("write-allocate should transform memset: %.1f vs %.1f",
			hypo.Samples[2].Mean(), real.Samples[2].Mean())
	}
}

func TestAblationA5Converges(t *testing.T) {
	e, _ := Lookup("A5")
	res := e.Run(smallConfig())
	linux := res.FindSeries("Linux 1.2.8")
	if linux == nil {
		t.Fatal("A5 missing Linux series")
	}
	first := linux.Samples[0].Mean()
	last := linux.Samples[len(linux.Samples)-1].Mean()
	if last < 1.7*first {
		t.Errorf("window sweep should roughly double Linux TCP: %.1f → %.1f", first, last)
	}
}

func TestAblationA6ServerPolicy(t *testing.T) {
	e, _ := Lookup("A6")
	res := e.Run(smallConfig())
	if len(res.Series) != 6 {
		t.Fatalf("A6 should have 6 rows (3 OS x 2 servers), got %d", len(res.Series))
	}
	// For each OS the sync server must be slower.
	for i := 0; i < 6; i += 2 {
		async := res.Series[i].Samples[0].Mean()
		sync := res.Series[i+1].Samples[0].Mean()
		if sync <= async {
			t.Errorf("%s: sync server (%.1f) not slower than async (%.1f)",
				res.Series[i].Label, sync, async)
		}
	}
}

func TestSaltIsolation(t *testing.T) {
	if saltFor("T2", "Linux", 0) == saltFor("T2", "Linux", 1) {
		t.Error("salts must differ per point")
	}
	if saltFor("T2", "Linux", 0) == saltFor("T3", "Linux", 0) {
		t.Error("salts must differ per experiment")
	}
	if saltFor("T2", "Linux", 0) == saltFor("T2", "FreeBSD", 0) {
		t.Error("salts must differ per series")
	}
}

func TestNoiseForCoversAllAreas(t *testing.T) {
	p := osprofile.Solaris24()
	areas := []noiseArea{noiseSyscall, noiseCtx, noiseMem, noiseFS, noiseMAB, noisePipe, noiseUDP, noiseTCP, noiseNFS}
	for _, a := range areas {
		if noiseFor(p, a) <= 0 {
			t.Errorf("noise area %d has non-positive level", a)
		}
	}
}

func TestAllAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every ablation")
	}
	cfg := smallConfig()
	for _, id := range []string{"A1", "A2", "A3", "A4", "A7"} {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		res := e.Run(cfg)
		if len(res.Series) == 0 {
			t.Errorf("%s produced no series", id)
		}
		for _, s := range res.Series {
			if len(s.Samples) == 0 {
				t.Errorf("%s/%s has no samples", id, s.Label)
			}
			for i, smp := range s.Samples {
				if smp.Mean() <= 0 {
					t.Errorf("%s/%s point %d non-positive", id, s.Label, i)
				}
			}
		}
	}
}

func TestA3FutureScheduler(t *testing.T) {
	e, _ := Lookup("A3")
	res := e.Run(smallConfig())
	old := res.FindSeries("Linux 1.2.8")
	dev := res.FindSeries("Linux 1.3.40 (development)")
	if old == nil || dev == nil {
		t.Fatal("A3 series missing")
	}
	// §13: ~10 µs switches at two processes with very little growth. Our
	// curve includes the ~18 µs of pipe operations (the F1 convention), so
	// the two-process point sits near 25 µs.
	if m := dev.Samples[0].Mean(); m > 32 {
		t.Errorf("1.3.40 ctx@2 = %.1f µs, want ~25 (10 µs switch + pipe ops)", m)
	}
	last := dev.Samples[len(dev.Samples)-1].Mean()
	if last > 3*dev.Samples[0].Mean() {
		t.Errorf("1.3.40 should barely grow: %.1f @2 vs %.1f at the end", dev.Samples[0].Mean(), last)
	}
	if old.Samples[len(old.Samples)-1].Mean() < 5*last {
		t.Error("the 1.2.8 line should tower over 1.3.40 at high process counts")
	}
}

func TestA4MetadataPolicyAblation(t *testing.T) {
	e, _ := Lookup("A4")
	res := e.Run(smallConfig())
	forced := res.FindSeries("Linux 1.2.8 (forced sync metadata)")
	stock := res.FindSeries("Linux 1.2.8")
	ordered := res.FindSeries("FreeBSD 2.1 (anticipated)")
	fbsd := res.FindSeries("FreeBSD 2.0.5R")
	if forced == nil || stock == nil || ordered == nil || fbsd == nil {
		t.Fatalf("A4 series missing: %v", res.Series)
	}
	// Forcing ext2 synchronous destroys its advantage at small sizes.
	if forced.Samples[1].Mean() < 8*stock.Samples[1].Mean() {
		t.Errorf("forced-sync ext2 %.1f not ≫ stock %.1f",
			forced.Samples[1].Mean(), stock.Samples[1].Mean())
	}
	// FreeBSD 2.1's ordered async recovers the order of magnitude.
	if ordered.Samples[1].Mean() > fbsd.Samples[1].Mean()/8 {
		t.Errorf("ordered-async %.1f should be ~10x below 2.0.5's %.1f",
			ordered.Samples[1].Mean(), fbsd.Samples[1].Mean())
	}
}

func TestA2PrefetchDistanceOrdering(t *testing.T) {
	e, _ := Lookup("A2")
	res := e.Run(smallConfig())
	if len(res.Series) != 5 {
		t.Fatalf("A2 series = %d, want 5 distances", len(res.Series))
	}
	// At a large (out-of-cache) size, deeper distance is never slower.
	last := len(res.Series[0].Samples) - 1
	var prev float64
	for i, s := range res.Series {
		m := s.Samples[last].Mean()
		if i > 0 && m < prev*0.98 {
			t.Errorf("distance series %d slower than %d: %.1f < %.1f", i, i-1, m, prev)
		}
		prev = m
	}
}
