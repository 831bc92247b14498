package bench

import (
	"testing"

	"repro/internal/osprofile"
)

func TestMABPhasesSumToTotal(t *testing.T) {
	for _, p := range osprofile.Paper() {
		r := MAB(plat, p, DefaultMAB(), 7)
		var sum int64
		for _, d := range r.Phase {
			if d <= 0 {
				t.Errorf("%s: non-positive phase: %v", p, r.Phase)
			}
			sum += int64(d)
		}
		if sum != int64(r.Total) {
			t.Errorf("%s: phases sum %d != total %d", p, sum, int64(r.Total))
		}
	}
}

func TestMABCompileDominates(t *testing.T) {
	// §12: despite microbenchmark differences, MAB totals are close —
	// because the compile phase dominates every system.
	for _, p := range osprofile.Paper() {
		r := MAB(plat, p, DefaultMAB(), 7)
		if r.Phase[4] < r.Total*7/10 {
			t.Errorf("%s: compile phase %v is under 70%% of total %v", p, r.Phase[4], r.Total)
		}
	}
}

func TestMABCopyPhaseShowsMetadataPolicy(t *testing.T) {
	// Phase 2 (copy) creates every file, so the FFS systems pay sync
	// metadata there and Linux does not.
	l := MAB(plat, osprofile.Linux128(), DefaultMAB(), 7)
	f := MAB(plat, osprofile.FreeBSD205(), DefaultMAB(), 7)
	if f.Phase[1] < 2*l.Phase[1] {
		t.Errorf("FreeBSD copy phase %v should dwarf Linux's %v", f.Phase[1], l.Phase[1])
	}
}

func TestMABConfigScaling(t *testing.T) {
	// Doubling the compile count adds roughly one compile-phase worth of
	// time; the other phases stay put.
	cfg := DefaultMAB()
	base := MAB(plat, osprofile.Linux128(), cfg, 7)
	cfg.CompileFiles *= 2
	double := MAB(plat, osprofile.Linux128(), cfg, 7)
	ratio := float64(double.Phase[4]) / float64(base.Phase[4])
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("doubling compiles scaled phase 5 by %.2f, want ~2", ratio)
	}
	if double.Phase[1] != base.Phase[1] {
		t.Error("copy phase should not depend on compile count")
	}
}

func TestMABOverNFSSlowerThanLocal(t *testing.T) {
	for _, p := range osprofile.Paper() {
		local := MAB(plat, p, DefaultMAB(), 7).Total
		remote := MABNFS(p, ServerSunOS, DefaultMAB(), 7).Total
		if remote <= local {
			t.Errorf("%s: NFS MAB (%v) should be slower than local (%v)", p, remote, local)
		}
	}
}

func TestNFSServerKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown server kind did not panic")
		}
	}()
	NewNFSServer(NFSServerKind(9), 1)
}
