package memmodel

import (
	"repro/internal/cache"
	"repro/internal/cpu"
)

// SweepPoint computes the steady-state bandwidth of one (routine, prefetch
// distance, buffer size) sweep point on a fresh hierarchy. It is the unit
// of work the §6 figures repeat across their sweeps, factored out so the
// direct path and the memoized path run exactly the same code.
func SweepPoint(c cpu.CPU, cfg cache.Config, r Routine, dist, size int) float64 {
	h := cache.MustAcquire(cfg)
	defer h.Release()
	m := newModelOn(c, h)
	m.PrefetchDistance = dist
	return m.Bandwidth(r, size)
}

// SweepKey identifies one sweep point by the full machine description and
// routine parameters that determine its (deterministic) bandwidth, so a
// memo.Table keyed by it can share points across a suite run. Both
// cpu.CPU and cache.Config are flat comparable structs, so the key doubles
// as its own machine-description hash: two points collide exactly when
// every calibrated constant, geometry parameter and routine parameter
// agrees, in which case their simulations are identical.
type SweepKey struct {
	CPU      cpu.CPU
	Cache    cache.Config
	Routine  Routine
	Distance int
	Size     int
}
