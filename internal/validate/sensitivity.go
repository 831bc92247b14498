package validate

import (
	"fmt"
	"reflect"

	"repro/internal/core"
	"repro/internal/osprofile"
	"repro/internal/sim"
)

// Sensitivity analysis: the calibrated cost constants in the OS
// personalities are fitted values, so a reproduction claim is only
// trustworthy if it survives reasonable perturbation of them. Perturb
// multiplies every calibrated duration and efficiency by an independent
// uniform factor in [1-eps, 1+eps], leaving structural choices — the
// scheduler kind, metadata policy, table sizes, window sizes, transfer
// sizes, cache capacities — untouched: those come from the paper's text,
// not from fitting.

// Perturb returns a copy of p with every calibrated constant scaled by an
// independent uniform factor in [1-eps, 1+eps] drawn from rng.
func Perturb(p *osprofile.Profile, rng *sim.RNG, eps float64) *osprofile.Profile {
	out := *p // shallow copy; all fields are values
	perturbStruct(reflect.ValueOf(&out).Elem(), rng, eps)
	return &out
}

var durationType = reflect.TypeOf(sim.Duration(0))

func perturbStruct(v reflect.Value, rng *sim.RNG, eps float64) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch {
		case f.Kind() == reflect.Struct:
			perturbStruct(f, rng, eps)
		case f.Type() == durationType:
			if d := f.Int(); d > 0 {
				f.SetInt(int64(float64(d) * factor(rng, eps)))
			}
		case f.Kind() == reflect.Float64:
			// Efficiencies and noise levels; keep efficiencies within (0, 1].
			val := f.Float()
			if val > 0 {
				scaled := val * factor(rng, eps)
				if val <= 1 && scaled > 1 {
					scaled = 1
				}
				f.SetFloat(scaled)
			}
		}
		// Ints, bools and strings are structural: never perturbed.
	}
}

func factor(rng *sim.RNG, eps float64) float64 {
	return 1 - eps + 2*eps*rng.Float64()
}

// ClaimRobustness is one claim's survival rate across perturbed trials.
type ClaimRobustness struct {
	Claim  Claim
	Passes int
	Trials int
	// FirstFailure records the first trial error, if any, for diagnosis.
	FirstFailure error
}

// Robust reports whether the claim passed every trial.
func (c ClaimRobustness) Robust() bool { return c.Passes == c.Trials }

// Sensitivity evaluates every claim across trials perturbed replicas of
// the study, each with all calibrated constants jittered by ±eps and its
// exhibits run on runner. The returned slice is in Claims() order.
func Sensitivity(runner *core.Runner, base core.Config, eps float64, trials int) []ClaimRobustness {
	claims := Claims()
	out := make([]ClaimRobustness, len(claims))
	for i := range out {
		out[i].Claim = claims[i]
		out[i].Trials = trials
	}
	for trial := 0; trial < trials; trial++ {
		cfg := base
		cfg.Seed = base.Seed + uint64(trial)
		rng := sim.NewRNG(cfg.Seed).Fork(0x5e45)
		perturbed := make([]*osprofile.Profile, len(base.Profiles))
		for j, p := range base.Profiles {
			perturbed[j] = Perturb(p, rng, eps)
		}
		cfg.Profiles = perturbed
		results, _ := runner.RunAll(cfg, Exhibits())
		for i, o := range Evaluate(results) {
			if o.Passed() {
				out[i].Passes++
			} else if out[i].FirstFailure == nil {
				out[i].FirstFailure = fmt.Errorf("trial %d: %w", trial, o.Err)
			}
		}
	}
	return out
}
