package memmodel

import (
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/memo"
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
// routine parameters that determine its (deterministic) bandwidth. Both
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

// SweepCache memoizes cache-hierarchy sweep points across a suite run.
// Several exhibits re-simulate identical points — Figure 3's memset curve
// is also ablation A1's "no write-allocate" baseline, Figure 6's memcpy
// likewise, and Figure 5 is ablation A2's distance-1 series — and the
// model is a pure function of the key, so sharing the value cannot change
// any result. It is a thin wrapper over the generic single-flight
// memo.Table, keeping the domain-typed API. A SweepCache is safe for
// concurrent use.
type SweepCache struct {
	table *memo.Table[SweepKey, float64]
}

// NewSweepCache returns an empty memo table.
func NewSweepCache() *SweepCache {
	return &SweepCache{table: memo.NewTable[SweepKey, float64]()}
}

// Bandwidth returns the bandwidth of the given sweep point, simulating it
// on first request and serving the memoized value afterwards.
func (c *SweepCache) Bandwidth(cpuc cpu.CPU, cfg cache.Config, r Routine, dist, size int) float64 {
	key := SweepKey{CPU: cpuc, Cache: cfg, Routine: r, Distance: dist, Size: size}
	return c.table.Do(key, func() float64 {
		return SweepPoint(cpuc, cfg, r, dist, size)
	})
}

// SweepCacheStats reports memo effectiveness for RunStats.
type SweepCacheStats struct {
	// Hits counts requests served without simulating.
	Hits uint64
	// Misses counts points simulated (equals the number of unique keys).
	Misses uint64
}

// Stats returns a snapshot of the hit/miss counters.
func (c *SweepCache) Stats() SweepCacheStats {
	s := c.table.Stats()
	return SweepCacheStats{Hits: s.Hits, Misses: s.Misses}
}
