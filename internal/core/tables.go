package core

import (
	"repro/internal/bench"
	"repro/internal/osprofile"
	"repro/internal/stats"
)

// Paper-reported table values (mean, std dev %) keyed by OS label, used
// both for the "Expected" columns and for EXPERIMENTS.md comparisons.
var (
	paperT2 = []Expectation{
		{Label: "Linux 1.2.8", Mean: 2.31, StdDevPct: 0.10},
		{Label: "FreeBSD 2.0.5R", Mean: 2.62, StdDevPct: 0.08},
		{Label: "Solaris 2.4", Mean: 3.52, StdDevPct: 2.95},
	}
	paperT3 = []Expectation{
		{Label: "Linux 1.2.8", Mean: 43.12, StdDevPct: 4.10},
		{Label: "FreeBSD 2.0.5R", Mean: 47.45, StdDevPct: 1.02},
		{Label: "Solaris 2.4", Mean: 54.31, StdDevPct: 1.93},
	}
	paperT4 = []Expectation{
		{Label: "Linux 1.2.8", Mean: 119.36, StdDevPct: 1.60},
		{Label: "FreeBSD 2.0.5R", Mean: 98.03, StdDevPct: 2.79},
		{Label: "Solaris 2.4", Mean: 65.38, StdDevPct: 1.56},
	}
	paperT5 = []Expectation{
		{Label: "FreeBSD 2.0.5R", Mean: 65.95, StdDevPct: 2.36},
		{Label: "Solaris 2.4", Mean: 60.11, StdDevPct: 16.34},
		{Label: "Linux 1.2.8", Mean: 25.03, StdDevPct: 5.45},
	}
	paperT6 = []Expectation{
		{Label: "FreeBSD 2.0.5R", Mean: 53.24, StdDevPct: 0.87},
		{Label: "Linux 1.2.8", Mean: 57.73, StdDevPct: 2.20},
		{Label: "Solaris 2.4", Mean: 58.38, StdDevPct: 1.36},
	}
	paperT7 = []Expectation{
		{Label: "FreeBSD 2.0.5R", Mean: 67.60, StdDevPct: 1.41},
		{Label: "Solaris 2.4", Mean: 87.94, StdDevPct: 3.17},
		{Label: "Linux 1.2.8", Mean: 115.06, StdDevPct: 1.54},
	}
)

// tableExperiment declares a one-value-per-OS experiment from a model
// function returning the deterministic mean for one OS.
func tableExperiment(id, title, paperRef, unit string, dir stats.Direction,
	area noiseArea, expected []Expectation, notes []string,
	model func(cfg Config, p *osprofile.Profile) float64) *Experiment {
	return &Experiment{
		ID:    id,
		Title: title,
		Kind:  Table,
		Paper: paperRef,
		YUnit: unit, Direction: dir,
		Expected: expected, Notes: notes,
		Series: func(cfg Config) []Series {
			return perProfile(cfg, 1, func(p *osprofile.Profile, _ int) Series {
				return row(cfg, id, p.String(), noiseFor(p, area), model(cfg, p))
			})
		},
	}
}

func init() {
	plat := bench.PaperPlatform()

	register(tableExperiment(
		"T2", "System Call (getpid)", "Table 2, §4",
		"µs", stats.LowerIsBetter, noiseSyscall, paperT2,
		[]string{
			"Linux has the fastest basic system call, then FreeBSD, then Solaris.",
			"Solaris' multi-threaded fully-preemptive kernel costs it ~50% over Linux.",
		},
		func(cfg Config, p *osprofile.Profile) float64 {
			return bench.Getpid(plat, p).Microseconds()
		}))

	register(tableExperiment(
		"T3", "MAB Local", "Table 3, §8.1",
		"s", stats.LowerIsBetter, noiseMAB, paperT3,
		[]string{
			"Linux first (async metadata + good small-file reads).",
			"FreeBSD beats Solaris despite losing crtdel badly: its attribute cache wins the stat phase and the gap is amortised by compile time.",
			"Overall MAB spread is far narrower than the microbenchmarks (paper §12).",
		},
		func(cfg Config, p *osprofile.Profile) float64 {
			return bench.MAB(plat, p, bench.DefaultMAB(), cfg.Seed).Total.Seconds()
		}))

	register(tableExperiment(
		"T4", "Pipe Bandwidth (bw_pipe)", "Table 4, §9.1",
		"Mb/s", stats.HigherIsBetter, noisePipe, paperT4,
		[]string{
			"Linux and FreeBSD could theoretically keep up with 100 Mb/s Ethernet; Solaris could not.",
			"Solaris pipes ride on System V STREAMS, the bulk of its deficit.",
		},
		func(cfg Config, p *osprofile.Profile) float64 {
			return bench.BwPipe(plat, p)
		}))

	register(tableExperiment(
		"T5", "TCP Bandwidth (bw_tcp)", "Table 5, §9.3",
		"Mb/s", stats.HigherIsBetter, noiseTCP, paperT5,
		[]string{
			"FreeBSD first; Solaris close behind with wildly unstable throughput (16% σ).",
			"Linux collapses to ~38% of FreeBSD: its TCP window is one packet.",
		},
		func(cfg Config, p *osprofile.Profile) float64 {
			return bench.BwTCP(p, 0)
		}))

	register(tableExperiment(
		"T6", "MAB over NFS, Linux 1.2.8 server", "Table 6, §10",
		"s", stats.LowerIsBetter, noiseNFS, paperT6,
		[]string{
			"FreeBSD's networking wins; Linux and Solaris effectively tie behind it.",
			"The Linux server replies from its cache (async policy), keeping every client fast.",
		},
		func(cfg Config, p *osprofile.Profile) float64 {
			return bench.MABNFS(p, bench.ServerLinux, bench.DefaultMAB(), cfg.Seed).Total.Seconds()
		}))

	register(tableExperiment(
		"T7", "MAB over NFS, SunOS 4.1.4 server", "Table 7, §10",
		"s", stats.LowerIsBetter, noiseNFS, paperT7,
		[]string{
			"The spec-compliant synchronous server slows everyone; FreeBSD degrades least.",
			"Linux 'performs miserably when connected to other types of servers' — tiny foreign transfer size, no pipelining, no client caching.",
		},
		func(cfg Config, p *osprofile.Profile) float64 {
			return bench.MABNFS(p, bench.ServerSunOS, bench.DefaultMAB(), cfg.Seed).Total.Seconds()
		}))
}
