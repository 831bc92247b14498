package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/nfsserver"
)

func setupScale(e *env) (func(), error) {
	suiteConfig(e.seed)
	return func() {}, nil
}

// runScale times the 18 nfsserver points S1/S2 plot — the three paper
// personalities at 10 … 10^6 clients with 8 nfsd — through core.ScaleRun,
// serially as the `scale` command runs them. Units and ops are sweeps;
// the traced run reports the points.
func runScale(e *env) error {
	cfg := suiteConfig(e.seed)
	ref := newRefs(e.gold.Scale)
	var points []float64
	start := time.Now()
	for n := 0; e.until(start, n, minUnits); n++ {
		m := startMeter()
		var keys []string
		var results []*nfsserver.Result
		for _, p := range cfg.Profiles {
			for _, clients := range scaleClients {
				t0 := time.Now()
				r := core.ScaleRun(cfg, p, clients, scaleNfsd, nil)
				points = append(points, ms(time.Since(t0)))
				keys = append(keys, scalePointKey(p, clients))
				results = append(results, r)
			}
		}
		wall := m.stop(&e.rec)
		e.rec.walls = append(e.rec.walls, wall.Seconds())
		e.rec.ops = append(e.rec.ops, ms(wall))
		for i, r := range results {
			checkScalePoint(e.chk, ref, keys[i], r)
		}
	}
	printSummary(e.out, "scale_s", "s", e.rec.walls)
	printSummary(e.out, "scale_point_ms", "ms", points)
	return nil
}
