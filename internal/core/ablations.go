package core

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/memmodel"
	"repro/internal/osprofile"
	"repro/internal/stats"
)

// The ablations of DESIGN.md §5: each isolates one design choice the
// paper identifies as decisive and shows the result flipping when it is
// changed.
func init() {
	register(&Experiment{
		ID:    "A1",
		Title: "Ablation: write-allocate cache",
		Kind:  Figure,
		Paper: "§6 (root cause); DESIGN.md A1",
		YUnit: "MB/s", XLabel: "buffer bytes", LogX: true,
		Direction: stats.HigherIsBetter,
		Notes: []string{
			"On a hypothetical write-allocate P54C, memset and memcpy jump to read-class bandwidth in cache — confirming §6's diagnosis.",
		},
		Series: func(cfg Config) []Series {
			variants := []struct {
				label    string
				allocate bool
				routine  memmodel.Routine
			}{
				{"memset, no write-allocate (real P54C)", false, memmodel.Memset},
				{"memset, write-allocate (hypothetical)", true, memmodel.Memset},
				{"memcpy, no write-allocate (real P54C)", false, memmodel.LibcMemcpy},
				{"memcpy, write-allocate (hypothetical)", true, memmodel.LibcMemcpy},
			}
			return fan(cfg, len(variants), func(vi int) Series {
				v := variants[vi]
				cacheCfg := cache.PentiumConfig()
				cacheCfg.WriteAllocate = v.allocate
				// The no-write-allocate variants are Figures 3 and 6's
				// exact sweeps; the memo shares their points.
				return memCurve(cfg, "A1", v.label, v.label, 0.01, cacheCfg, v.routine, memmodel.DefaultPrefetchDistance)
			})
		},
	})

	register(&Experiment{
		ID:    "A2",
		Title: "Ablation: prefetch distance",
		Kind:  Figure,
		Paper: "§6.2-6.3; DESIGN.md A2",
		YUnit: "MB/s", XLabel: "buffer bytes", LogX: true,
		Direction: stats.HigherIsBetter,
		Notes: []string{
			"Beyond the caches, deeper prefetch lookahead hides more of the line-fill latency, saturating once the fill is fully hidden.",
		},
		Series: func(cfg Config) []Series {
			dists := []int{0, 1, 2, 4, 8}
			return fan(cfg, len(dists), func(di int) Series {
				label := fmt.Sprintf("prefetch distance %d", dists[di])
				// Distance 1 is Figure 5's exact sweep; the memo shares it.
				return memCurve(cfg, "A2", label, label, 0.01, cache.PentiumConfig(), memmodel.PrefetchWrite, dists[di])
			})
		},
	})

	register(&Experiment{
		ID:    "A3",
		Title: "Ablation: scheduler structure (Linux 1.3.40 preview)",
		Kind:  Figure,
		Paper: "§5, §13; DESIGN.md A3",
		YUnit: "µs", XLabel: "active processes", LogX: true,
		Direction: stats.LowerIsBetter,
		Notes: []string{
			"Replacing the O(n) pick with the 1.3.40 scheduler gives ~10 µs switches with almost no growth in process count (§13).",
		},
		Series: func(cfg Config) []Series {
			variants := []*osprofile.Profile{osprofile.Linux128(), osprofile.Linux1340()}
			return fan(cfg, len(variants), func(i int) Series {
				p := variants[i]
				return ctxSeries(cfg, p, bench.CtxRing, p.String())
			})
		},
	})

	register(&Experiment{
		ID:    "A4",
		Title: "Ablation: metadata update policy",
		Kind:  Figure,
		Paper: "§7.2, §13; DESIGN.md A4",
		YUnit: "ms", XLabel: "file bytes", LogX: true,
		Direction: stats.LowerIsBetter,
		Notes: []string{
			"ext2 forced synchronous loses its order-of-magnitude advantage; FreeBSD 2.1's ordered-async policy recovers it (§13).",
		},
		Series: func(cfg Config) []Series {
			linuxSync := osprofile.Linux128()
			linuxSync.Version = "1.2.8 (forced sync metadata)"
			linuxSync.FS.MetaPolicy = osprofile.MetaSync
			linuxSync.FS.SyncWritesPerCreate = 2
			linuxSync.FS.SyncWritesPerUnlink = 2
			linuxSync.FS.SyncWritesPerMkdir = 2
			variants := []*osprofile.Profile{
				osprofile.Linux128(), linuxSync,
				osprofile.FreeBSD205(), osprofile.FreeBSD21(),
			}
			return fan(cfg, len(variants), func(i int) Series { return crtdelCurve(cfg, "A4", variants[i]) })
		},
	})

	register(&Experiment{
		ID:    "A5",
		Title: "Ablation: Linux TCP window",
		Kind:  Figure,
		Paper: "§9.3; DESIGN.md A5",
		YUnit: "Mb/s", XLabel: "window packets", LogX: true,
		Direction: stats.HigherIsBetter,
		Notes: []string{
			"Widening Linux's one-packet window recovers most of the Table 5 gap to FreeBSD: the window, not the data path, was the bottleneck.",
		},
		Series: func(cfg Config) []Series {
			windows := []int{1, 2, 4, 8, 16, 32, 64}
			linux := osprofile.Linux128()
			// FreeBSD's actual Table 5 value as the reference line.
			fb := osprofile.FreeBSD205()
			ref := bench.BwTCP(fb, 0)
			return []Series{
				curve(cfg, "A5", "window", linux.String(), floats(windows), linux.Net.TCPNoise, func(i int) float64 {
					return bench.BwTCP(linux, windows[i])
				}),
				curve(cfg, "A5", "ref", fb.String()+" (reference)", floats(windows), fb.Net.TCPNoise, func(int) float64 { return ref }),
			}
		},
	})

	register(&Experiment{
		ID:    "A6",
		Title: "Ablation: NFS server write policy",
		Kind:  Table,
		Paper: "§10; DESIGN.md A6",
		YUnit: "s", Direction: stats.LowerIsBetter,
		Notes: []string{
			"Swapping only the server's write policy reproduces most of the Table 6 → Table 7 slowdown: the spec's synchronous commit is the dominant cost.",
		},
		Series: func(cfg Config) []Series {
			kinds := []bench.NFSServerKind{bench.ServerLinux, bench.ServerSunOS}
			return perProfile(cfg, len(kinds), func(p *osprofile.Profile, k int) Series {
				name := "async server (Linux)"
				if kinds[k] == bench.ServerSunOS {
					name = "sync server (SunOS)"
				}
				mean := bench.MABNFS(p, kinds[k], bench.DefaultMAB(), cfg.Seed).Total.Seconds()
				return row(cfg, "A6", p.String()+" / "+name, noiseFor(p, noiseNFS), mean)
			})
		},
	})
}
