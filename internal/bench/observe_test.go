package bench

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/osprofile"
	"repro/internal/sim"
)

// TestObservedVariantsBitIdentical is the observability layer's central
// promise at the benchmark level: attaching a scope never changes a
// measurement. Every Scope method must return exactly its plain entry
// point's value, with a live sampler where the model samples.
func TestObservedVariantsBitIdentical(t *testing.T) {
	plat := PaperPlatform()
	sampled := func() *Scope { return &Scope{Sampler: obs.NewSampler(100 * sim.Millisecond)} }
	for _, p := range osprofile.Paper() {
		t.Run(p.String(), func(t *testing.T) {
			if d := new(Scope).Getpid(plat, p); d != Getpid(plat, p) {
				t.Error("Scope.Getpid diverges from Getpid")
			}
			if d := sampled().Ctx(plat, p, 8, CtxRing); d != Ctx(plat, p, 8, CtxRing) {
				t.Error("Scope.Ctx diverges from Ctx")
			}
			if v := new(Scope).BwPipe(plat, p); v != BwPipe(plat, p) {
				t.Error("Scope.BwPipe diverges from BwPipe")
			}
			if d := sampled().Crtdel(plat, p, 64<<10, 1); d != Crtdel(plat, p, 64<<10, 1) {
				t.Error("Scope.Crtdel diverges from Crtdel")
			}
			if v := new(Scope).BwTCP(p, 0); v != BwTCP(p, 0) {
				t.Error("Scope.BwTCP diverges from BwTCP")
			}
			if v := new(Scope).TTCP(p, 1024); v != TTCP(p, 1024) {
				t.Error("Scope.TTCP diverges from TTCP")
			}
			for _, kind := range []NFSServerKind{ServerLinux, ServerSunOS} {
				if r := new(Scope).MABNFS(p, kind, DefaultMAB(), 1); r != MABNFS(p, kind, DefaultMAB(), 1) {
					t.Errorf("Scope.MABNFS diverges from MABNFS (server %d)", kind)
				}
			}
		})
	}
}

// TestObservationsCarryData sanity-checks the observability products:
// non-empty metric snapshots, positive totals, and (for clocked models)
// captured span streams.
func TestObservationsCarryData(t *testing.T) {
	plat := PaperPlatform()
	p := osprofile.FreeBSD205()
	o := new(Scope)
	o.Crtdel(plat, p, 64<<10, 1)
	if o.Total <= 0 {
		t.Fatal("crtdel observation has no total")
	}
	if len(o.Metrics.Counters) == 0 {
		t.Fatal("crtdel observation has no metrics")
	}
	if len(o.Process.Events) == 0 {
		t.Fatal("crtdel observation captured no spans")
	}
	if len(o.Process.Events) > TraceRingCap {
		t.Fatalf("trace exceeds ring cap: %d > %d", len(o.Process.Events), TraceRingCap)
	}
}

// The Disabled/Observed benchmark pairs measure the observability hooks'
// cost on real benchmark runs: Disabled is the plain path (hooks
// present, recorder nil — the acceptance bar is a ≤2% delta against the
// pre-instrumentation baseline), Observed the full tracing path.
// CI prints both so the overhead stays visible.

func BenchmarkCrtdelDisabled(b *testing.B) {
	plat := PaperPlatform()
	p := osprofile.FreeBSD205()
	for i := 0; i < b.N; i++ {
		Crtdel(plat, p, 64<<10, 1)
	}
}

func BenchmarkCrtdelObserved(b *testing.B) {
	plat := PaperPlatform()
	p := osprofile.FreeBSD205()
	for i := 0; i < b.N; i++ {
		new(Scope).Crtdel(plat, p, 64<<10, 1)
	}
}

func BenchmarkCtxDisabled(b *testing.B) {
	plat := PaperPlatform()
	p := osprofile.Linux128()
	for i := 0; i < b.N; i++ {
		Ctx(plat, p, 8, CtxRing)
	}
}

func BenchmarkCtxObserved(b *testing.B) {
	plat := PaperPlatform()
	p := osprofile.Linux128()
	for i := 0; i < b.N; i++ {
		new(Scope).Ctx(plat, p, 8, CtxRing)
	}
}
