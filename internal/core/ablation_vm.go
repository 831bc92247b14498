package core

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/osprofile"
	"repro/internal/stats"
	"repro/internal/vm"
)

// A7 — memory pressure: §7 attributes bonnie's 20 MB cache knee to the
// dynamically sized buffer cache trading physical pages with the VM
// system. This ablation makes the trade visible: it reruns bonnie's read
// sweep on FreeBSD with increasingly large memory hogs resident, and the
// knee moves left accordingly.
func init() {
	plat := bench.PaperPlatform()

	register(&Experiment{
		ID:    "A7",
		Title: "Ablation: buffer cache vs. memory pressure",
		Kind:  Figure,
		Paper: "§7 (the dynamic buffer cache); DESIGN.md A7",
		YUnit: "MB/s", XLabel: "file MB", LogX: true,
		Direction: stats.HigherIsBetter,
		Notes: []string{
			"The bonnie read knee sits wherever the VM leaves room for the cache: ~20 MB idle, sliding left as resident processes claim pages.",
			"This is §7's 'trades physical pages for buffer cache pages' made visible.",
		},
		Series: func(cfg Config) []Series {
			p := osprofile.FreeBSD205()
			hogs := []int{0, 6, 12}
			sizes := bench.BonnieSweepSizes()
			return fan(cfg, len(hogs), func(hi int) Series {
				pool := vm.PaperMachine(3)
				if hogs[hi] > 0 {
					pool.Claim("memory hog", int64(hogs[hi])<<20)
				}
				budget := pool.CacheBudget()
				label := fmt.Sprintf("%s, %d MB hog (cache %d MB)", p.Name, hogs[hi], budget>>20)
				return curve(cfg, "A7", label, label, floats(sizes), noiseFor(p, noiseFS), func(i int) float64 {
					return bench.BonnieWithCache(plat, p, sizes[i], cfg.Seed+uint64(i), budget).ReadMBs
				})
			})
		},
	})
}
