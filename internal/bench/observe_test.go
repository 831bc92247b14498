package bench

import (
	"testing"

	"repro/internal/osprofile"
)

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
