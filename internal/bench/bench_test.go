package bench

import (
	"testing"

	"repro/internal/osprofile"
	"repro/internal/sim"
)

var plat = PaperPlatform()

func µs(d sim.Duration) float64 { return d.Microseconds() }

func TestGetpidTable2(t *testing.T) {
	// Table 2: Linux 2.31, FreeBSD 2.62, Solaris 3.52 µs.
	cases := []struct {
		p    *osprofile.Profile
		want float64
	}{
		{osprofile.Linux128(), 2.31},
		{osprofile.FreeBSD205(), 2.62},
		{osprofile.Solaris24(), 3.52},
	}
	for _, c := range cases {
		got := µs(Getpid(plat, c.p))
		if got < c.want*0.98 || got > c.want*1.02 {
			t.Errorf("%s getpid = %.3f µs, want ~%.2f", c.p, got, c.want)
		}
	}
}

func TestCtxTwoProcesses(t *testing.T) {
	// §5: at two processes Linux ~55 µs, FreeBSD ~80 µs, Solaris ~220 µs.
	cases := []struct {
		p    *osprofile.Profile
		want float64
	}{
		{osprofile.Linux128(), 55},
		{osprofile.FreeBSD205(), 80},
		{osprofile.Solaris24(), 220},
	}
	for _, c := range cases {
		got := µs(Ctx(plat, c.p, 2, CtxRing))
		if got < c.want*0.93 || got > c.want*1.07 {
			t.Errorf("%s ctx@2 = %.1f µs, want ~%.0f", c.p, got, c.want)
		}
	}
}

func TestCtxLinuxLinearCrossover(t *testing.T) {
	// Figure 1: Linux is fastest below ~20 processes, grows linearly, and
	// crosses FreeBSD's flat line around 20.
	linux, fbsd := osprofile.Linux128(), osprofile.FreeBSD205()
	l8 := µs(Ctx(plat, linux, 8, CtxRing))
	f8 := µs(Ctx(plat, fbsd, 8, CtxRing))
	if l8 >= f8 {
		t.Errorf("at 8 procs Linux (%.1f) should beat FreeBSD (%.1f)", l8, f8)
	}
	l40 := µs(Ctx(plat, linux, 40, CtxRing))
	f40 := µs(Ctx(plat, fbsd, 40, CtxRing))
	if l40 <= f40 {
		t.Errorf("at 40 procs FreeBSD (%.1f) should beat Linux (%.1f)", f40, l40)
	}
	// Linearity: equal increments per added process.
	l100 := µs(Ctx(plat, linux, 100, CtxRing))
	l200 := µs(Ctx(plat, linux, 200, CtxRing))
	perTask := (l200 - l100) / 100
	if perTask < 1.0 || perTask > 1.8 {
		t.Errorf("Linux per-task slope = %.2f µs, want ~1.4", perTask)
	}
}

func TestCtxFreeBSDFlat(t *testing.T) {
	f2 := µs(Ctx(plat, osprofile.FreeBSD205(), 2, CtxRing))
	f256 := µs(Ctx(plat, osprofile.FreeBSD205(), 256, CtxRing))
	if f256 > f2*1.05 || f256 < f2*0.90 {
		t.Errorf("FreeBSD ctx should be flat: %.1f @2 vs %.1f @256", f2, f256)
	}
}

func TestCtxSolarisJumpAt32(t *testing.T) {
	sol := osprofile.Solaris24()
	s32 := µs(Ctx(plat, sol, 32, CtxRing))
	s40 := µs(Ctx(plat, sol, 40, CtxRing))
	if s40 < s32+80 {
		t.Errorf("Solaris ring should jump past 32 procs: %.1f @32 vs %.1f @40", s32, s40)
	}
	// LIFO rises more gradually between 32 and 64 than the ring does.
	ring40 := s40
	lifo40 := µs(Ctx(plat, sol, 40, CtxLIFO))
	if lifo40 >= ring40 {
		t.Errorf("LIFO @40 (%.1f) should be below ring @40 (%.1f)", lifo40, ring40)
	}
	lifo128 := µs(Ctx(plat, sol, 128, CtxLIFO))
	if lifo128 <= lifo40 {
		t.Errorf("LIFO should keep growing past 64: %.1f @40, %.1f @128", lifo40, lifo128)
	}
}

func TestCtxPanicsBelowTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Ctx with 1 process did not panic")
		}
	}()
	Ctx(plat, osprofile.Linux128(), 1, CtxRing)
}

func TestBwPipeTable4(t *testing.T) {
	// Table 4: Linux 119.36, FreeBSD 98.03, Solaris 65.38 Mb/s.
	cases := []struct {
		p    *osprofile.Profile
		want float64
	}{
		{osprofile.Linux128(), 119.36},
		{osprofile.FreeBSD205(), 98.03},
		{osprofile.Solaris24(), 65.38},
	}
	for _, c := range cases {
		got := BwPipe(plat, c.p)
		if got < c.want*0.95 || got > c.want*1.05 {
			t.Errorf("%s bw_pipe = %.2f Mb/s, want ~%.2f", c.p, got, c.want)
		}
	}
}

func TestCrtdelFigure12(t *testing.T) {
	linux := Crtdel(plat, osprofile.Linux128(), 1024, 7)
	fbsd := Crtdel(plat, osprofile.FreeBSD205(), 1024, 7)
	sol := Crtdel(plat, osprofile.Solaris24(), 1024, 7)
	// Order of magnitude: Linux in single-digit ms, others in tens.
	if linux > 8*sim.Millisecond {
		t.Errorf("Linux crtdel = %v, want a few ms (no disk access)", linux)
	}
	if s := sol.Milliseconds(); s < 30 || s > 40 {
		t.Errorf("Solaris crtdel = %.1f ms, want ~34", s)
	}
	if f := fbsd.Milliseconds(); f < 58 || f > 76 {
		t.Errorf("FreeBSD crtdel = %.1f ms, want ~66", f)
	}
	// The FreeBSD-Solaris gap is ~32 ms and stays roughly constant with
	// file size (§7.2).
	gapSmall := fbsd.Milliseconds() - sol.Milliseconds()
	fbsdBig := Crtdel(plat, osprofile.FreeBSD205(), 1<<20, 7)
	solBig := Crtdel(plat, osprofile.Solaris24(), 1<<20, 7)
	gapBig := fbsdBig.Milliseconds() - solBig.Milliseconds()
	if gapSmall < 25 || gapSmall > 40 {
		t.Errorf("small-file gap = %.1f ms, want ~32", gapSmall)
	}
	if gapBig < gapSmall-12 || gapBig > gapSmall+12 {
		t.Errorf("gap should stay near constant: %.1f ms at 1KB, %.1f ms at 1MB", gapSmall, gapBig)
	}
}

func TestMABTable3(t *testing.T) {
	cases := []struct {
		p    *osprofile.Profile
		want float64
	}{
		{osprofile.Linux128(), 43.12},
		{osprofile.FreeBSD205(), 47.45},
		{osprofile.Solaris24(), 54.31},
	}
	var totals []float64
	for _, c := range cases {
		got := MAB(plat, c.p, DefaultMAB(), 7).Total.Seconds()
		totals = append(totals, got)
		if got < c.want*0.92 || got > c.want*1.08 {
			t.Errorf("%s MAB = %.2f s, want ~%.2f", c.p, got, c.want)
		}
	}
	if !(totals[0] < totals[1] && totals[1] < totals[2]) {
		t.Errorf("MAB order must be Linux < FreeBSD < Solaris: %v", totals)
	}
}

func TestMABStatPhaseFreeBSDWins(t *testing.T) {
	// §8.1: in the directory-stat phase FreeBSD "exceeds even Linux's
	// performance" thanks to its attribute cache.
	l := MAB(plat, osprofile.Linux128(), DefaultMAB(), 7)
	f := MAB(plat, osprofile.FreeBSD205(), DefaultMAB(), 7)
	if f.Phase[2] >= l.Phase[2] {
		t.Errorf("FreeBSD stat phase (%v) should beat Linux (%v)", f.Phase[2], l.Phase[2])
	}
}

func TestMABSpreadNarrowerThanMicrobenchmarks(t *testing.T) {
	// §12: "the systems' overall performance on the MAB workload is much
	// closer" than the microbenchmarks. crtdel spread is ~25x; MAB must
	// be under 1.5x.
	l := MAB(plat, osprofile.Linux128(), DefaultMAB(), 7).Total.Seconds()
	s := MAB(plat, osprofile.Solaris24(), DefaultMAB(), 7).Total.Seconds()
	if s/l > 1.5 {
		t.Errorf("MAB spread Solaris/Linux = %.2f, want < 1.5", s/l)
	}
}

func TestMABNFSTable6(t *testing.T) {
	// Table 6 (Linux server): FreeBSD 53.24 < Linux 57.73 ≈ Solaris 58.38.
	f := MABNFS(osprofile.FreeBSD205(), ServerLinux, DefaultMAB(), 7).Total.Seconds()
	l := MABNFS(osprofile.Linux128(), ServerLinux, DefaultMAB(), 7).Total.Seconds()
	s := MABNFS(osprofile.Solaris24(), ServerLinux, DefaultMAB(), 7).Total.Seconds()
	if !(f < l && f < s) {
		t.Errorf("FreeBSD must lead Table 6: F %.1f, L %.1f, S %.1f", f, l, s)
	}
	// Linux and Solaris effectively tie (paper gap is ~1%).
	if diff := l/s - 1; diff > 0.06 || diff < -0.06 {
		t.Errorf("Linux (%.1f) and Solaris (%.1f) should be within ~6%%", l, s)
	}
	for name, got := range map[string][2]float64{
		"FreeBSD": {f, 53.24}, "Linux": {l, 57.73}, "Solaris": {s, 58.38},
	} {
		if got[0] < got[1]*0.92 || got[0] > got[1]*1.08 {
			t.Errorf("%s Table 6 = %.2f, want ~%.2f", name, got[0], got[1])
		}
	}
}

func TestMABNFSTable7(t *testing.T) {
	// Table 7 (SunOS server): FreeBSD 67.60 < Solaris 87.94 < Linux 115.06.
	f := MABNFS(osprofile.FreeBSD205(), ServerSunOS, DefaultMAB(), 7).Total.Seconds()
	s := MABNFS(osprofile.Solaris24(), ServerSunOS, DefaultMAB(), 7).Total.Seconds()
	l := MABNFS(osprofile.Linux128(), ServerSunOS, DefaultMAB(), 7).Total.Seconds()
	if !(f < s && s < l) {
		t.Errorf("Table 7 order must be FreeBSD < Solaris < Linux: %.1f %.1f %.1f", f, s, l)
	}
	for name, got := range map[string][2]float64{
		"FreeBSD": {f, 67.60}, "Solaris": {s, 87.94}, "Linux": {l, 115.06},
	} {
		if got[0] < got[1]*0.90 || got[0] > got[1]*1.10 {
			t.Errorf("%s Table 7 = %.2f, want ~%.2f", name, got[0], got[1])
		}
	}
	// Linux "performs miserably" against foreign servers: ~2x its Linux
	// -server time.
	l6 := MABNFS(osprofile.Linux128(), ServerLinux, DefaultMAB(), 7).Total.Seconds()
	if l < 1.7*l6 {
		t.Errorf("Linux vs SunOS server (%.1f) should be ~2x its Linux-server time (%.1f)", l, l6)
	}
}

func TestBonnieFigure9Read(t *testing.T) {
	// In-cache (4 MB): FreeBSD 5-15% faster than both.
	l := Bonnie(plat, osprofile.Linux128(), 4, 7)
	f := Bonnie(plat, osprofile.FreeBSD205(), 4, 7)
	s := Bonnie(plat, osprofile.Solaris24(), 4, 7)
	if f.ReadMBs <= l.ReadMBs || f.ReadMBs <= s.ReadMBs {
		t.Errorf("FreeBSD must read fastest in cache: L %.1f F %.1f S %.1f",
			l.ReadMBs, f.ReadMBs, s.ReadMBs)
	}
	if adv := f.ReadMBs / l.ReadMBs; adv < 1.03 || adv > 1.25 {
		t.Errorf("FreeBSD in-cache read advantage = %.2f, want 1.05-1.15ish", adv)
	}
	// Out of cache (100 MB): Solaris best, Linux worst.
	lo := Bonnie(plat, osprofile.Linux128(), 100, 7)
	fo := Bonnie(plat, osprofile.FreeBSD205(), 100, 7)
	so := Bonnie(plat, osprofile.Solaris24(), 100, 7)
	if !(so.ReadMBs > fo.ReadMBs && fo.ReadMBs > lo.ReadMBs) {
		t.Errorf("out-of-cache read order must be Solaris > FreeBSD > Linux: %.2f %.2f %.2f",
			so.ReadMBs, fo.ReadMBs, lo.ReadMBs)
	}
}

func TestBonnieFigure10Write(t *testing.T) {
	l := Bonnie(plat, osprofile.Linux128(), 4, 7)
	f := Bonnie(plat, osprofile.FreeBSD205(), 4, 7)
	s := Bonnie(plat, osprofile.Solaris24(), 4, 7)
	// §7.1: FreeBSD writes small files ~50% faster than Solaris.
	if r := f.WriteMBs / s.WriteMBs; r < 1.25 || r > 1.75 {
		t.Errorf("FreeBSD/Solaris small-file write ratio = %.2f, want ~1.5", r)
	}
	// Linux under half of both.
	if l.WriteMBs > 0.55*s.WriteMBs || l.WriteMBs > 0.55*f.WriteMBs {
		t.Errorf("Linux write bw %.2f must be < half of FreeBSD %.2f and Solaris %.2f",
			l.WriteMBs, f.WriteMBs, s.WriteMBs)
	}
	// And still under half at a large size.
	lBig := Bonnie(plat, osprofile.Linux128(), 48, 7)
	fBig := Bonnie(plat, osprofile.FreeBSD205(), 48, 7)
	if lBig.WriteMBs > 0.6*fBig.WriteMBs {
		t.Errorf("Linux 48 MB write bw %.2f not well below FreeBSD %.2f", lBig.WriteMBs, fBig.WriteMBs)
	}
}

func TestBonnieFigure11Seeks(t *testing.T) {
	l := Bonnie(plat, osprofile.Linux128(), 4, 7)
	f := Bonnie(plat, osprofile.FreeBSD205(), 4, 7)
	s := Bonnie(plat, osprofile.Solaris24(), 4, 7)
	// §7.1: Linux and Solaris ~50% more seeks/s than FreeBSD in cache.
	if r := l.SeeksPerSec / f.SeeksPerSec; r < 1.3 || r > 1.9 {
		t.Errorf("Linux/FreeBSD in-cache seek ratio = %.2f, want ~1.5", r)
	}
	if r := s.SeeksPerSec / f.SeeksPerSec; r < 1.2 || r > 1.8 {
		t.Errorf("Solaris/FreeBSD in-cache seek ratio = %.2f, want ~1.5", r)
	}
	// All three converge out of cache: ~14 ms per seek → ≥ ~70/s, and
	// within 20% of each other.
	lo := Bonnie(plat, osprofile.Linux128(), 100, 7)
	fo := Bonnie(plat, osprofile.FreeBSD205(), 100, 7)
	so := Bonnie(plat, osprofile.Solaris24(), 100, 7)
	for _, r := range []BonnieResult{lo, fo, so} {
		if r.SeeksPerSec < 60 || r.SeeksPerSec > 130 {
			t.Errorf("out-of-cache seeks = %.1f/s, want near 1/14ms with partial cache hits", r.SeeksPerSec)
		}
	}
	if so.SeeksPerSec > lo.SeeksPerSec*1.25 || lo.SeeksPerSec > so.SeeksPerSec*1.25 {
		t.Errorf("out-of-cache seek rates should converge: %.1f vs %.1f", lo.SeeksPerSec, so.SeeksPerSec)
	}
}

func TestBonnieCacheKneeAt20MB(t *testing.T) {
	// Figures 9-11: files up to ~20 MB are cached; beyond that read
	// bandwidth collapses to disk speed.
	f16 := Bonnie(plat, osprofile.FreeBSD205(), 16, 7)
	f32 := Bonnie(plat, osprofile.FreeBSD205(), 32, 7)
	if f16.ReadMBs < 10 {
		t.Errorf("16 MB file should read at cache speed, got %.1f MB/s", f16.ReadMBs)
	}
	if f32.ReadMBs > 5 {
		t.Errorf("32 MB file should read at disk speed, got %.1f MB/s", f32.ReadMBs)
	}
}

func TestTTCPFigure13AndBwTCPTable5(t *testing.T) {
	// Peaks at 8 KB packets: FreeBSD ~48, Solaris ~32, Linux ~16 Mb/s.
	f := TTCP(osprofile.FreeBSD205(), 8192)
	s := TTCP(osprofile.Solaris24(), 8192)
	l := TTCP(osprofile.Linux128(), 8192)
	if !(f > s && s > l) {
		t.Errorf("UDP peak order wrong: %.1f %.1f %.1f", f, s, l)
	}
	// Table 5 via the wrapper.
	if bw := BwTCP(osprofile.Linux128(), 0); bw < 22 || bw > 28 {
		t.Errorf("Linux bw_tcp = %.2f, want ~25", bw)
	}
	// A5 wrapper: window override raises Linux.
	if BwTCP(osprofile.Linux128(), 16) <= BwTCP(osprofile.Linux128(), 0) {
		t.Error("window override must raise Linux TCP bandwidth")
	}
}

func TestMemSweepSizesShape(t *testing.T) {
	sizes := MemSweepSizes()
	if sizes[0] > 64 || sizes[len(sizes)-1] != 8<<20 {
		t.Fatalf("sweep must span 64B..8MB, got %d..%d", sizes[0], sizes[len(sizes)-1])
	}
	ragged := 0
	for i := 1; i < len(sizes); i++ {
		if sizes[i] < sizes[i-1] {
			t.Fatal("sweep not ascending")
		}
		if sizes[i]%16 != 0 {
			ragged++
		}
	}
	if ragged == 0 {
		t.Fatal("sweep needs ragged sizes to exhibit the §6.4 tail dips")
	}
}

func TestFuturesImproveBenchmarks(t *testing.T) {
	// §13: Linux 1.3.40 context switches in ~10 µs with little slowdown.
	d2 := µs(Ctx(plat, osprofile.Linux1340(), 2, CtxRing))
	base := µs(Ctx(plat, osprofile.Linux128(), 2, CtxRing))
	if d2 >= base/2 {
		t.Errorf("Linux 1.3.40 ctx@2 = %.1f µs, should be far below 1.2.8's %.1f", d2, base)
	}
	d64 := µs(Ctx(plat, osprofile.Linux1340(), 64, CtxRing))
	if d64 > d2*1.3 {
		t.Errorf("Linux 1.3.40 should have very little slowdown: %.1f @2 vs %.1f @64", d2, d64)
	}
	// FreeBSD 2.1's ordered-async metadata fixes small files.
	f21 := Crtdel(plat, osprofile.FreeBSD21(), 1024, 7)
	f205 := Crtdel(plat, osprofile.FreeBSD205(), 1024, 7)
	if f21 > f205/5 {
		t.Errorf("FreeBSD 2.1 crtdel = %v, should be far below 2.0.5's %v", f21, f205)
	}
	// Solaris 2.5 context switches faster.
	s25 := µs(Ctx(plat, osprofile.Solaris25(), 2, CtxRing))
	s24 := µs(Ctx(plat, osprofile.Solaris24(), 2, CtxRing))
	if s25 >= s24 {
		t.Errorf("Solaris 2.5 ctx (%.1f) should beat 2.4 (%.1f)", s25, s24)
	}
}

func TestBenchmarksDeterministic(t *testing.T) {
	if a, b := BwPipe(plat, osprofile.Solaris24()), BwPipe(plat, osprofile.Solaris24()); a != b {
		t.Error("BwPipe not deterministic")
	}
	a := MAB(plat, osprofile.FreeBSD205(), DefaultMAB(), 9).Total
	b := MAB(plat, osprofile.FreeBSD205(), DefaultMAB(), 9).Total
	if a != b {
		t.Error("MAB not deterministic")
	}
	if x, y := Crtdel(plat, osprofile.Linux128(), 4096, 3), Crtdel(plat, osprofile.Linux128(), 4096, 3); x != y {
		t.Error("Crtdel not deterministic")
	}
}
