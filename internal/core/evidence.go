package core

import (
	"repro/internal/bench"
	"repro/internal/osprofile"
	"repro/internal/stats"
)

// Supplementary evidence exhibits (ids X1, X2): not tables or figures of
// the paper, but the measurements behind two of its inferences. X1 breaks
// the Modified Andrew Benchmark into its five phases, supporting §8.1's
// discussion (FreeBSD wins the stat phase; compile time dominates and
// compresses the spread). X2 counts actual disk operations during crtdel,
// turning §7.2's inference ("Linux clearly is not accessing the disk")
// into a direct observation.
func init() {
	plat := bench.PaperPlatform()

	register(&Experiment{
		ID:    "X1",
		Title: "MAB Phase Breakdown (supplementary)",
		Kind:  Figure,
		Paper: "§8.1 (discussion of Table 3)",
		YUnit: "s", XLabel: "phase (1=mkdir 2=copy 3=stat 4=read 5=compile)",
		Direction: stats.LowerIsBetter,
		Notes: []string{
			"FreeBSD is competitive with Solaris in every phase and beats even Linux in phase 3 (its attribute cache).",
			"Compile time dominates every system, which is why MAB totals sit so much closer than the microbenchmarks.",
		},
		Series: func(cfg Config) []Series {
			return perProfile(cfg, 1, func(p *osprofile.Profile, _ int) Series {
				r := bench.MAB(plat, p, bench.DefaultMAB(), cfg.Seed)
				return curve(cfg, "X1", p.String(), p.String(), floats([]int{1, 2, 3, 4, 5}), noiseFor(p, noiseMAB), func(i int) float64 {
					return r.Phase[i].Seconds()
				})
			})
		},
	})

	register(&Experiment{
		ID:    "X2",
		Title: "Disk Operations per crtdel Iteration (supplementary)",
		Kind:  Table,
		Paper: "§7.2 (the asynchronous-metadata inference)",
		YUnit: "disk ops", Direction: stats.LowerIsBetter,
		Notes: []string{
			"Linux performs zero synchronous disk operations per create/write/read/delete cycle — §7.2's 'clearly not accessing the disk', observed directly.",
			"The FFS systems pay one synchronous metadata write per count shown; FreeBSD issues the most.",
		},
		Series: func(cfg Config) []Series {
			// An operation count carries no measurement noise: rel 0
			// makes every run exactly the count.
			return perProfile(cfg, 1, func(p *osprofile.Profile, _ int) Series {
				return row(cfg, "X2", p.String(), 0, crtdelDiskOps(plat, p, cfg.Seed))
			})
		},
	})
}

// crtdelDiskOps counts synchronous metadata disk writes per crtdel
// iteration for one personality, from the fs counters of a scoped
// bench.Crtdel run at 1 KB.
func crtdelDiskOps(plat bench.Platform, p *osprofile.Profile, seed uint64) float64 {
	var s bench.Scope
	s.Crtdel(plat, p, 1<<10, seed)
	writes, _ := s.Metrics.Get("fs.sync_meta_writes")
	return writes / bench.CrtdelIterations
}
