package core

import (
	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/memmodel"
	"repro/internal/osprofile"
	"repro/internal/stats"
)

// ctxProcCounts is Figure 1's process-count sweep.
var ctxProcCounts = []int{2, 3, 4, 6, 8, 12, 16, 20, 24, 32, 40, 48, 64, 96, 128, 192, 256, 512}

func init() {
	register(&Experiment{
		ID:    "F1",
		Title: "Context Switch vs. Active Processes",
		Kind:  Figure,
		Paper: "Figure 1, §5",
		YUnit: "µs", XLabel: "active processes", LogX: true,
		Direction: stats.LowerIsBetter,
		Expected: []Expectation{
			{Label: "Linux 1.2.8 @2", Mean: 55, StdDevPct: 3},
			{Label: "FreeBSD 2.0.5R @2", Mean: 80, StdDevPct: 4},
			{Label: "Solaris 2.4 @2", Mean: 220, StdDevPct: 9},
		},
		Notes: []string{
			"Linux grows linearly (O(n) task-list scan) but wins below ~20 processes.",
			"FreeBSD is flat at ~80 µs at every process count.",
			"Solaris is slowest everywhere, with a sharp jump past 32 processes.",
			"The Solaris-LIFO chain still jumps at 32 but grows gradually past 64.",
		},
		Series: func(cfg Config) []Series {
			type ctxSlot struct {
				p     *osprofile.Profile
				order bench.CtxOrder
				label string
			}
			var slots []ctxSlot
			for _, p := range cfg.Profiles {
				slots = append(slots, ctxSlot{p, bench.CtxRing, p.String()})
			}
			// The paper adds the LIFO variant for Solaris only.
			for _, p := range cfg.Profiles {
				if p.Kernel.Scheduler == osprofile.SchedPreemptiveMT {
					slots = append(slots, ctxSlot{p, bench.CtxLIFO, p.Name + "-LIFO"})
				}
			}
			return fan(cfg, len(slots), func(i int) Series {
				return ctxSeries(cfg, slots[i].p, slots[i].order, slots[i].label)
			})
		},
	})

	// Figures 2-8: the memory suite. One experiment per figure, all a
	// single hardware curve.
	memFigs := []struct {
		id, title string
		routine   memmodel.Routine
		expected  []Expectation
		notes     []string
	}{
		{"F2", "Custom Read Bandwidth", memmodel.CustomRead,
			[]Expectation{
				{Label: "L1 plateau", Mean: 300},
				{Label: "L2 plateau", Mean: 110},
				{Label: "memory plateau", Mean: 75},
			},
			[]string{"Humps at 8 KB and 256 KB reveal the cache sizes."}},
		{"F3", "Memset Bandwidth", memmodel.Memset,
			[]Expectation{{Label: "peak", Mean: 45}},
			[]string{"Flat and below 50 MB/s at every size: writes never allocate, so every store goes to the bus."}},
		{"F4", "Naive Custom Write Bandwidth", memmodel.NaiveWrite,
			[]Expectation{{Label: "peak", Mean: 45}},
			[]string{"Very similar to memset (paper §6.2)."}},
		{"F5", "Prefetching Custom Write Bandwidth", memmodel.PrefetchWrite,
			[]Expectation{{Label: "peak", Mean: 310}},
			[]string{"Software prefetch recovers write-allocate behaviour: peak 310 MB/s."}},
		{"F6", "Memcpy Bandwidth", memmodel.LibcMemcpy,
			[]Expectation{{Label: "typical", Mean: 40}},
			[]string{"About 40 MB/s: destination stores miss and go to the bus."}},
		{"F7", "Naive Custom Copy Bandwidth", memmodel.NaiveCopy,
			[]Expectation{{Label: "typical", Mean: 40}},
			[]string{"Resembles memcpy (paper §6.3)."}},
		{"F8", "Prefetching Custom Copy Bandwidth", memmodel.PrefetchCopy,
			[]Expectation{{Label: "peak", Mean: 160}},
			[]string{"Over 160 MB/s copied (320 MB/s total), approaching the read peak."}},
	}
	for _, mf := range memFigs {
		register(&Experiment{
			ID:    mf.id,
			Title: mf.title,
			Kind:  Figure,
			Paper: "Figures 2-8, §6",
			YUnit: "MB/s", XLabel: "buffer bytes", LogX: true,
			Direction: stats.HigherIsBetter,
			Expected:  mf.expected,
			Notes:     mf.notes,
			Series: func(cfg Config) []Series {
				// Memory noise is hardware-level; use the first profile's.
				rel := 0.01
				if len(cfg.Profiles) > 0 {
					rel = noiseFor(cfg.Profiles[0], noiseMem)
				}
				return []Series{memCurve(cfg, mf.id, "hw", "Pentium P54C-100", rel,
					cache.PentiumConfig(), mf.routine, memmodel.DefaultPrefetchDistance)}
			},
		})
	}

	// Figures 9-11: bonnie.
	bonnieFigs := []struct {
		id, title, unit string
		dir             stats.Direction
		pick            func(bench.BonnieResult) float64
		notes           []string
	}{
		{"F9", "Bonnie Sequential Read", "MB/s", stats.HigherIsBetter,
			func(r bench.BonnieResult) float64 { return r.ReadMBs },
			[]string{
				"All three cache files up to ~20 MB of the 32 MB machine.",
				"FreeBSD reads 5-15% faster in cache; Solaris is best out of cache; Linux worst out of cache.",
			}},
		{"F10", "Bonnie Sequential Write", "MB/s", stats.HigherIsBetter,
			func(r bench.BonnieResult) float64 { return r.WriteMBs },
			[]string{
				"FreeBSD writes small files ~50% faster than Solaris.",
				"Linux maintains less than half the write bandwidth of the others at almost all sizes.",
			}},
		{"F11", "Bonnie Random Seeks", "seeks/s", stats.HigherIsBetter,
			func(r bench.BonnieResult) float64 { return r.SeeksPerSec },
			[]string{
				"Linux and Solaris do ~50% more seeks+I/O per second than FreeBSD in cache.",
				"All three converge to ~14 ms per uncached random seek.",
			}},
	}
	for _, bf := range bonnieFigs {
		register(&Experiment{
			ID:    bf.id,
			Title: bf.title,
			Kind:  Figure,
			Paper: "Figures 9-11, §7.1",
			YUnit: bf.unit, XLabel: "file MB", LogX: true,
			Direction: bf.dir, Notes: bf.notes,
			Series: func(cfg Config) []Series {
				sizes := bench.BonnieSweepSizes()
				return perProfile(cfg, 1, func(p *osprofile.Profile, _ int) Series {
					return curve(cfg, bf.id, p.String(), p.String(), floats(sizes), noiseFor(p, noiseFS), func(i int) float64 {
						return bf.pick(bonniePoint(cfg, p, sizes[i], cfg.Seed+uint64(i)))
					})
				})
			},
		})
	}

	register(&Experiment{
		ID:    "F12",
		Title: "File Create/Delete (crtdel)",
		Kind:  Figure,
		Paper: "Figure 12, §7.2",
		YUnit: "ms", XLabel: "file bytes", LogX: true,
		Direction: stats.LowerIsBetter,
		Expected: []Expectation{
			{Label: "Solaris 2.4 @1KB", Mean: 34},
			{Label: "FreeBSD 2.0.5R @1KB", Mean: 66},
		},
		Notes: []string{
			"Linux never touches the disk: ext2 updates metadata asynchronously — an order of magnitude faster.",
			"FreeBSD trails Solaris by a near-constant ~32 ms: more (or farther) synchronous metadata writes.",
		},
		Series: func(cfg Config) []Series {
			return perProfile(cfg, 1, func(p *osprofile.Profile, _ int) Series {
				return crtdelCurve(cfg, "F12", p)
			})
		},
	})

	register(&Experiment{
		ID:    "F13",
		Title: "UDP Bandwidth (ttcp)",
		Kind:  Figure,
		Paper: "Figure 13, §9.2",
		YUnit: "Mb/s", XLabel: "packet bytes", LogX: true,
		Direction: stats.HigherIsBetter,
		Expected: []Expectation{
			{Label: "FreeBSD 2.0.5R peak", Mean: 48},
			{Label: "Solaris 2.4 peak", Mean: 32},
			{Label: "Linux 1.2.8 peak", Mean: 16},
		},
		Notes: []string{
			"FreeBSD approaches 50 Mb/s (half its pipe bandwidth); Solaris peaks at ~32 (also half of pipes).",
			"Linux, despite the best pipes, is worst at UDP: extra copies and inefficient buffer allocation (14% of its pipe bandwidth).",
		},
		Series: func(cfg Config) []Series {
			sizes := bench.TTCPSweepSizes()
			return perProfile(cfg, 1, func(p *osprofile.Profile, _ int) Series {
				return curve(cfg, "F13", p.String(), p.String(), floats(sizes), noiseFor(p, noiseUDP), func(i int) float64 {
					return bench.TTCP(p, sizes[i])
				})
			})
		},
	})
}

// ctxSeries runs the Figure 1 sweep for one OS and pattern. (The "F1"
// salt is shared with ablation A3, which reuses these curves; keep it.)
func ctxSeries(cfg Config, p *osprofile.Profile, order bench.CtxOrder, label string) Series {
	plat := bench.PaperPlatform()
	return curve(cfg, "F1", label, label, floats(ctxProcCounts), noiseFor(p, noiseCtx), func(i int) float64 {
		return bench.Ctx(plat, p, ctxProcCounts[i], order).Microseconds()
	})
}

// memCurve runs one §6 cache-hierarchy sweep over the memory suite's
// buffer sizes.
func memCurve(cfg Config, id, salt, label string, rel float64, cacheCfg cache.Config, r memmodel.Routine, dist int) Series {
	sizes := bench.MemSweepSizes()
	return curve(cfg, id, salt, label, floats(sizes), rel, func(i int) float64 {
		return memPoint(cfg, cacheCfg, r, dist, sizes[i])
	})
}

// memPoint returns the bandwidth of one §6 sweep point on the paper's
// CPU, sharing identical (machine, routine, distance, size) points
// across exhibits through the suite memo when one is attached to cfg.
func memPoint(cfg Config, cacheCfg cache.Config, r memmodel.Routine, dist, size int) float64 {
	cpuc := bench.PaperPlatform().CPU
	run := func() float64 { return memmodel.SweepPoint(cpuc, cacheCfg, r, dist, size) }
	if cfg.memo == nil {
		return run()
	}
	return cfg.memo.Do(memmodel.SweepKey{CPU: cpuc, Cache: cacheCfg, Routine: r, Distance: dist, Size: size}, run)
}

// crtdelCurve runs the Figure 12 crtdel sweep for one personality.
func crtdelCurve(cfg Config, id string, p *osprofile.Profile) Series {
	plat := bench.PaperPlatform()
	sizes := bench.CrtdelSweepSizes()
	return curve(cfg, id, p.String(), p.String(), floats(sizes), noiseFor(p, noiseFS), func(i int) float64 {
		return bench.Crtdel(plat, p, sizes[i], cfg.Seed+uint64(i)).Milliseconds()
	})
}

// bonnieKey identifies one bonnie run for the per-suite cache. The
// personality is keyed by identity, as scaleKey's is.
type bonnieKey struct {
	profile *osprofile.Profile
	fileMB  int
	seed    uint64
}

// bonniePoint runs (or serves from the suite cache) one bonnie run on the
// paper platform. Figures 9-11 each plot one field of the same runs, so
// through the cache a suite runs each (personality, size, seed) once;
// the run is a pure function of the key, so sharing it cannot change a
// result.
func bonniePoint(cfg Config, p *osprofile.Profile, fileMB int, seed uint64) bench.BonnieResult {
	run := func() bench.BonnieResult { return bench.Bonnie(bench.PaperPlatform(), p, fileMB, seed) }
	if cfg.bonnie == nil {
		return run()
	}
	return cfg.bonnie.Do(bonnieKey{profile: p, fileMB: fileMB, seed: seed}, run)
}
