package validate

import (
	"testing"

	"repro/internal/core"
	"repro/internal/osprofile"
	"repro/internal/sim"
)

func TestPerturbScalesDurations(t *testing.T) {
	base := osprofile.Solaris24()
	rng := sim.NewRNG(1)
	p := Perturb(base, rng, 0.2)
	if p.Kernel.Syscall == base.Kernel.Syscall {
		t.Error("syscall cost unperturbed")
	}
	ratio := float64(p.Kernel.Syscall) / float64(base.Kernel.Syscall)
	if ratio < 0.8 || ratio > 1.2 {
		t.Errorf("perturbation ratio %.3f outside ±20%%", ratio)
	}
	// Nested structs are reached.
	if p.FS.WritePerKB == base.FS.WritePerKB && p.Net.TCPCopyPerKB == base.Net.TCPCopyPerKB {
		t.Error("nested cost fields unperturbed")
	}
}

// TestPerturbedProfilesValidate keeps the personality bounds wide enough
// for sensitivity's replicas: every built-in profile, the -future set
// included, perturbed at eps 0.99 (the widest -eps accepts) still
// validates, as a -profiles file holding it would load.
func TestPerturbedProfilesValidate(t *testing.T) {
	rng := sim.NewRNG(7)
	for _, base := range osprofile.All() {
		for i := 0; i < 50; i++ {
			if err := Perturb(base, rng, 0.99).Validate(); err != nil {
				t.Fatalf("%s, draw %d: %v", base, i, err)
			}
		}
	}
}

func TestPerturbPreservesStructure(t *testing.T) {
	base := osprofile.Linux128()
	p := Perturb(base, sim.NewRNG(2), 0.2)
	if p.Kernel.Scheduler != base.Kernel.Scheduler {
		t.Error("scheduler kind must not change")
	}
	if p.Net.TCPWindowPackets != base.Net.TCPWindowPackets {
		t.Error("TCP window is structural (the paper states it)")
	}
	if p.FS.MetaPolicy != base.FS.MetaPolicy {
		t.Error("metadata policy is structural")
	}
	if p.FS.SyncWritesPerCreate != base.FS.SyncWritesPerCreate {
		t.Error("sync write counts are structural")
	}
	if p.Kernel.PipeCapacity != base.Kernel.PipeCapacity {
		t.Error("pipe capacity is structural")
	}
	if p.Name != base.Name || p.Version != base.Version {
		t.Error("identity must not change")
	}
}

func TestPerturbEfficiencyBounds(t *testing.T) {
	base := osprofile.Solaris24() // SeqReadEff 0.90: scaling up must clamp at 1
	for seed := uint64(0); seed < 50; seed++ {
		p := Perturb(base, sim.NewRNG(seed), 0.2)
		if p.FS.SeqReadEff <= 0 || p.FS.SeqReadEff > 1 {
			t.Fatalf("seed %d: SeqReadEff = %v out of (0,1]", seed, p.FS.SeqReadEff)
		}
	}
}

func TestPerturbDoesNotMutateBase(t *testing.T) {
	base := osprofile.FreeBSD205()
	want := base.Kernel.Syscall
	Perturb(base, sim.NewRNG(3), 0.5)
	if base.Kernel.Syscall != want {
		t.Fatal("Perturb mutated its input")
	}
}

func TestPerturbDeterministic(t *testing.T) {
	a := Perturb(osprofile.Linux128(), sim.NewRNG(7), 0.2)
	b := Perturb(osprofile.Linux128(), sim.NewRNG(7), 0.2)
	if a.Kernel.Syscall != b.Kernel.Syscall || a.FS.WritePerKB != b.FS.WritePerKB {
		t.Fatal("Perturb not deterministic")
	}
}

func TestSensitivitySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("sensitivity trial takes a few seconds")
	}
	cfg := core.DefaultConfig()
	cfg.Runs = 5
	rob := Sensitivity(core.NewRunner(0), cfg, 0.05, 1)
	if len(rob) != len(Claims()) {
		t.Fatalf("robustness rows %d != claims %d", len(rob), len(Claims()))
	}
	pass := 0
	for _, r := range rob {
		if r.Trials != 1 {
			t.Fatalf("trials = %d, want 1", r.Trials)
		}
		if r.Robust() {
			pass++
		} else {
			t.Logf("claim %s fragile at ±5%%: %v", r.Claim.ID, r.FirstFailure)
		}
	}
	// At ±5% essentially everything must survive.
	if pass < len(rob)-2 {
		t.Errorf("only %d/%d claims survive a ±5%% perturbation", pass, len(rob))
	}
}
