package core

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/fs"
	"repro/internal/osprofile"
	"repro/internal/sim"
)

func TestX1PhaseBreakdown(t *testing.T) {
	e, _ := Lookup("X1")
	res := e.Run(smallConfig())
	if len(res.Series) != 3 {
		t.Fatalf("X1 series = %d, want 3", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.X) != 5 {
			t.Fatalf("%s: %d phases, want 5", s.Label, len(s.X))
		}
	}
	// §8.1: FreeBSD wins the stat phase (index 2), beating even Linux.
	fb := res.FindSeries("FreeBSD 2.0.5R")
	lx := res.FindSeries("Linux 1.2.8")
	if fb.Samples[2].Mean() >= lx.Samples[2].Mean() {
		t.Errorf("FreeBSD stat phase %.3f should beat Linux %.3f",
			fb.Samples[2].Mean(), lx.Samples[2].Mean())
	}
	// Compile (index 4) dominates everywhere — several times the copy
	// phase even on the FFS systems, whose copy phase pays sync metadata.
	for _, s := range res.Series {
		if s.Samples[4].Mean() < 5*s.Samples[1].Mean() {
			t.Errorf("%s: compile %.2f not ≫ copy %.2f", s.Label,
				s.Samples[4].Mean(), s.Samples[1].Mean())
		}
	}
}

func TestX2DiskOps(t *testing.T) {
	e, _ := Lookup("X2")
	res := e.Run(smallConfig())
	get := func(label string) float64 { return res.FindSeries(label).Samples[0].Mean() }
	if get("Linux 1.2.8") != 0 {
		t.Errorf("Linux crtdel disk ops = %v, want exactly 0 (§7.2)", get("Linux 1.2.8"))
	}
	fb, sol := get("FreeBSD 2.0.5R"), get("Solaris 2.4")
	if fb <= sol || sol <= 0 {
		t.Errorf("disk op counts: FreeBSD %v must exceed Solaris %v > 0", fb, sol)
	}
	// Counts are deterministic: zero variance.
	for _, s := range res.Series {
		if s.Samples[0].StdDev() != 0 {
			t.Errorf("%s: operation count has variance", s.Label)
		}
	}
}

// crtdelLoopDiskOps is the reference count for X2: a plain
// create/write/read/unlink loop of 1 KB files on a fresh file system,
// counting its synchronous metadata writes per iteration.
func crtdelLoopDiskOps(plat bench.Platform, p *osprofile.Profile, seed uint64) float64 {
	clock := &sim.Clock{}
	fsys := fs.MustNew(clock, plat.Disk(sim.NewRNG(seed)), p)
	const iters = 20
	for i := 0; i < iters; i++ {
		f, err := fsys.Create("/t")
		if err != nil {
			panic(err)
		}
		f.Write(1024)
		f.Close()
		g, err := fsys.Open("/t")
		if err != nil {
			panic(err)
		}
		g.Read(1024)
		g.Close()
		if err := fsys.Unlink("/t"); err != nil {
			panic(err)
		}
	}
	return float64(fsys.Stats().SyncMetaWrites) / iters
}

// X2 reads its count from the fs counters of a scoped bench.Crtdel run,
// whose disk is forked from the seed and whose loop runs longer; the
// count per iteration must still be the plain loop's, for every
// personality at every seed.
func TestCrtdelDiskOpsMatchesLoop(t *testing.T) {
	plat := bench.PaperPlatform()
	for _, p := range osprofile.All() {
		t.Run(p.String(), func(t *testing.T) {
			for _, seed := range []uint64{1, 2, 7, 5111} {
				if got, want := crtdelDiskOps(plat, p, seed), crtdelLoopDiskOps(plat, p, seed); got != want {
					t.Errorf("seed %d: crtdelDiskOps = %v, plain loop = %v", seed, got, want)
				}
			}
		})
	}
}

func TestA7KneeMoves(t *testing.T) {
	e, _ := Lookup("A7")
	res := e.Run(smallConfig())
	if len(res.Series) != 3 {
		t.Fatalf("A7 series = %d, want 3 pressure levels", len(res.Series))
	}
	// At a 12 MB file: full cache serves it, the most pressured cache
	// (9 MB) cannot.
	at12 := func(si int) float64 {
		s := res.Series[si]
		for i, x := range s.X {
			if x == 12 {
				return s.Samples[i].Mean()
			}
		}
		t.Fatal("no 12 MB point")
		return 0
	}
	idle, pressured := at12(0), at12(2)
	if idle < 4*pressured {
		t.Errorf("knee did not move: idle %.1f vs pressured %.1f at 12 MB", idle, pressured)
	}
}
