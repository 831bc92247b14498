package bench_test

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/osprofile"
	"repro/internal/sim"
	"repro/internal/validate"
)

// TestObservedVariantsBitIdentical is the observability layer's central
// promise at the benchmark level: attaching a scope never changes a
// measurement. Every Scope method must return exactly its plain entry
// point's value, with a live sampler where the model samples. The
// kernel benchmarks' plain runs fast-forward their repeating laps and
// the observed ones step every lap, so those are compared machine by
// machine as well: elapsed time, the six phases, switches, and every
// thread's iterations, user time and first-run and retire stamps.
func TestObservedVariantsBitIdentical(t *testing.T) {
	plat := bench.PaperPlatform()
	sampled := func() *bench.Scope { return &bench.Scope{Sampler: obs.NewSampler(100 * sim.Millisecond)} }
	for _, p := range osprofile.Paper() {
		t.Run(p.String(), func(t *testing.T) {
			if d := new(bench.Scope).Getpid(plat, p); d != bench.Getpid(plat, p) {
				t.Error("Scope.Getpid diverges from Getpid")
			}
			if d := sampled().Ctx(plat, p, 8, bench.CtxRing); d != bench.Ctx(plat, p, 8, bench.CtxRing) {
				t.Error("Scope.Ctx diverges from Ctx")
			}
			if v := new(bench.Scope).BwPipe(plat, p); v != bench.BwPipe(plat, p) {
				t.Error("Scope.BwPipe diverges from BwPipe")
			}
			if d := sampled().Crtdel(plat, p, 64<<10, 1); d != bench.Crtdel(plat, p, 64<<10, 1) {
				t.Error("Scope.Crtdel diverges from Crtdel")
			}
			if v := new(bench.Scope).BwTCP(p, 0); v != bench.BwTCP(p, 0) {
				t.Error("Scope.BwTCP diverges from BwTCP")
			}
			if v := new(bench.Scope).TTCP(p, 1024); v != bench.TTCP(p, 1024) {
				t.Error("Scope.TTCP diverges from TTCP")
			}
			for _, kind := range []bench.NFSServerKind{bench.ServerLinux, bench.ServerSunOS} {
				if r := new(bench.Scope).MABNFS(p, kind, bench.DefaultMAB(), 1); r != bench.MABNFS(p, kind, bench.DefaultMAB(), 1) {
					t.Errorf("Scope.MABNFS diverges from MABNFS (server %d)", kind)
				}
			}
		})
	}
	for _, p := range kernelProfiles() {
		t.Run("kernel/"+p.String(), func(t *testing.T) {
			t.Parallel()
			// F1 runs the ring on every personality and the LIFO chain on
			// the preemptive-MT ones.
			orders := []bench.CtxOrder{bench.CtxRing}
			if p.Kernel.Scheduler == osprofile.SchedPreemptiveMT {
				orders = append(orders, bench.CtxLIFO)
			}
			for _, order := range orders {
				for _, n := range ctxProcCounts {
					sameRun(t, fmt.Sprintf("ctx %d order %d", n, order), bench.CtxMachine(nil, p, n, order), bench.CtxMachine(new(bench.Scope), p, n, order))
				}
			}
			for _, msg := range core.IPCMsgSizes {
				sameRun(t, fmt.Sprintf("ipc pipe %d", msg), bench.IPCPipeMachine(nil, p, msg, bench.IPCTotalBytes), bench.IPCPipeMachine(new(bench.Scope), p, msg, bench.IPCTotalBytes))
			}
			sameRun(t, "getpid", bench.GetpidMachine(nil, p), bench.GetpidMachine(new(bench.Scope), p))
			sameRun(t, "bw_pipe", bench.BwPipeMachine(nil, p), bench.BwPipeMachine(new(bench.Scope), p))
		})
	}
}

// ctxProcCounts is Figure 1's process-count sweep.
var ctxProcCounts = []int{2, 3, 4, 6, 8, 12, 16, 20, 24, 32, 40, 48, 64, 96, 128, 192, 256, 512}

// kernelProfiles are the personalities the kernel machines are compared
// under: every built-in one (the paper's, the -future set, Linux
// 1.3.40), perturbed copies of them at the sensitivity default eps 0.15
// over three seeds, and a wake-one Linux 1.2.8.
func kernelProfiles() []*osprofile.Profile {
	ps := osprofile.All()
	for seed := uint64(1); seed <= 3; seed++ {
		rng := sim.NewRNG(seed)
		for _, p := range osprofile.All() {
			q := validate.Perturb(p, rng, 0.15)
			q.Name += fmt.Sprintf(" (perturbed, seed %d)", seed)
			ps = append(ps, q)
		}
	}
	wake := osprofile.Linux128()
	wake.Kernel.PipeWakeAll = false
	wake.Name += " (wake-one)"
	return append(ps, wake)
}

// sameRun runs a plain machine and its observed twin and reports every
// difference between them.
func sameRun(t *testing.T, name string, plain, stepped *kernel.Machine) {
	t.Helper()
	if a, b := plain.Run(), stepped.Run(); a != b {
		t.Errorf("%s: elapsed %v, observed %v", name, a, b)
	}
	if a, b := plain.PhaseBreakdown(), stepped.PhaseBreakdown(); a != b {
		t.Errorf("%s: phases %v, observed %v", name, a, b)
	}
	if a, b := plain.Switches(), stepped.Switches(); a != b {
		t.Errorf("%s: %d switches, observed %d", name, a, b)
	}
	for i, a := range plain.Threads() {
		b := stepped.Threads()[i]
		if a.Iters != b.Iters || a.UserTime != b.UserTime || a.FirstRun != b.FirstRun || a.Retired != b.Retired {
			t.Errorf("%s: thread %d iters %d user %v first run %v retired %v, observed %d %v %v %v",
				name, i, a.Iters, a.UserTime, a.FirstRun, a.Retired, b.Iters, b.UserTime, b.FirstRun, b.Retired)
		}
	}
}
