package bench

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/osprofile"
)

// TestObservedVariantsBitIdentical is the observability layer's central
// promise at the benchmark level: attaching a recorder never changes a
// measurement. Every observed variant must return exactly the plain
// variant's value.
func TestObservedVariantsBitIdentical(t *testing.T) {
	plat := PaperPlatform()
	for _, p := range osprofile.Paper() {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			if d, _ := GetpidObserved(plat, p); d != Getpid(plat, p) {
				t.Error("GetpidObserved diverges from Getpid")
			}
			if d, _ := CtxSampled(plat, p, 8, CtxRing, nil); d != Ctx(plat, p, 8, CtxRing) {
				t.Error("CtxSampled diverges from Ctx")
			}
			if v, _ := BwPipeObserved(plat, p); v != BwPipe(plat, p) {
				t.Error("BwPipeObserved diverges from BwPipe")
			}
			if d, _ := CrtdelSampled(plat, p, 64<<10, 1, fault.Injectors{}, nil); d != Crtdel(plat, p, 64<<10, 1) {
				t.Error("CrtdelSampled diverges from Crtdel")
			}
			if v, _ := BwTCPObserved(p, 0, fault.Injectors{}); v != BwTCP(p, 0) {
				t.Error("BwTCPObserved diverges from BwTCP")
			}
			if v, _ := TTCPObserved(p, 1024, fault.Injectors{}); v != TTCP(p, 1024) {
				t.Error("TTCPObserved diverges from TTCP")
			}
			for _, kind := range []NFSServerKind{ServerLinux, ServerSunOS} {
				if r, _ := MABNFSObserved(p, kind, DefaultMAB(), 1, fault.Injectors{}); r != MABNFS(p, kind, DefaultMAB(), 1) {
					t.Errorf("MABNFSObserved diverges from MABNFS (server %d)", kind)
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
	_, o := CrtdelSampled(plat, p, 64<<10, 1, fault.Injectors{}, nil)
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
		CrtdelSampled(plat, p, 64<<10, 1, fault.Injectors{}, nil)
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
		CtxSampled(plat, p, 8, CtxRing, nil)
	}
}
