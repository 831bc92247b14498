package bench

// The acceptance sweep for the SMP lock personalities: at eight CPUs
// each OS shows a spin-vs-sleep crossover in mean acquisition wait —
// spinning wins while critical sections are short, sleeping wins once
// they dwarf a block/wakeup round trip — and the crossover point is a
// personality property, distinct for each system's lock cost table.

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/osprofile"
	"repro/internal/sim"
)

// crossoverCrits is the critical-section sweep of exhibit L2.
var crossoverCrits = []sim.Duration{
	1 * sim.Microsecond, 2 * sim.Microsecond, 5 * sim.Microsecond,
	10 * sim.Microsecond, 20 * sim.Microsecond, 50 * sim.Microsecond,
	100 * sim.Microsecond, 200 * sim.Microsecond, 500 * sim.Microsecond,
	1000 * sim.Microsecond,
}

// meanWait runs one point and returns the mean contended wait in ns.
func meanWait(p *osprofile.Profile, kind kernel.LockKind, crit sim.Duration) float64 {
	r := LockContention(p, LockWorkload{
		Kind:  kind,
		NCPU:  8,
		Think: 5 * sim.Microsecond,
		Crit:  crit,
		Iters: 200,
	})
	if r.WaitHist.N() == 0 {
		return 0
	}
	return float64(r.WaitHist.Sum()) / float64(r.WaitHist.N())
}

// persistentCrossover returns the smallest crit at which sleeping's mean
// wait beats spinning's and keeps beating it for every larger crit in
// the sweep; 0 when none exists. "Persistent" guards against a single
// aliased point counting as the regime change.
func persistentCrossover(p *osprofile.Profile) sim.Duration {
	n := len(crossoverCrits)
	sleepWins := make([]bool, n)
	for i, crit := range crossoverCrits {
		sleepWins[i] = meanWait(p, kernel.SleepLock, crit) < meanWait(p, kernel.SpinLock, crit)
	}
	for i := n - 1; i >= 0; i-- {
		if !sleepWins[i] {
			if i == n-1 {
				return 0
			}
			return crossoverCrits[i+1]
		}
	}
	return crossoverCrits[0]
}

func TestSpinSleepCrossoverPerPersonality(t *testing.T) {
	// Pinned from the cost tables: Solaris' cheap turnstile block makes
	// sleeping pay off earliest; FreeBSD's expensive tsleep latest.
	want := map[string]sim.Duration{
		"Solaris 2.4":    50 * sim.Microsecond,
		"Linux 1.2.8":    100 * sim.Microsecond,
		"FreeBSD 2.0.5R": 200 * sim.Microsecond,
	}
	seen := map[sim.Duration]string{}
	for _, p := range osprofile.Paper() {
		// The regime endpoints: spinning must win short sections,
		// sleeping must win very long ones, for every personality.
		if s, sp := meanWait(p, kernel.SleepLock, crossoverCrits[0]), meanWait(p, kernel.SpinLock, crossoverCrits[0]); s <= sp {
			t.Errorf("%s: sleeping beat spinning at 1µs critical sections (%.0f vs %.0f ns)", p, s, sp)
		}
		last := crossoverCrits[len(crossoverCrits)-1]
		if s, sp := meanWait(p, kernel.SleepLock, last), meanWait(p, kernel.SpinLock, last); s >= sp {
			t.Errorf("%s: spinning beat sleeping at 1ms critical sections (%.0f vs %.0f ns)", p, sp, s)
		}
		cross := persistentCrossover(p)
		if cross == 0 {
			t.Errorf("%s: no persistent spin→sleep crossover in the sweep", p)
			continue
		}
		if w, ok := want[p.String()]; ok && cross != w {
			t.Errorf("%s: crossover at %v, pinned %v", p, cross, w)
		}
		if prev, dup := seen[cross]; dup {
			t.Errorf("%s and %s share the crossover %v — personalities must be distinguishable", p, prev, cross)
		}
		seen[cross] = p.String()
	}
}

// TestLockThroughputScalesWithCPUs sanity-checks the L1 axis: adding
// CPUs adds aggregate critical-section throughput while sections are
// short relative to think time (the workload is not lock-saturated at
// two CPUs).
func TestLockThroughputScalesWithCPUs(t *testing.T) {
	p := osprofile.Linux128()
	one := LockContention(p, LockWorkload{Kind: kernel.SpinLock, NCPU: 1, Think: 50 * sim.Microsecond, Crit: 2 * sim.Microsecond, Iters: 200})
	two := LockContention(p, LockWorkload{Kind: kernel.SpinLock, NCPU: 2, Think: 50 * sim.Microsecond, Crit: 2 * sim.Microsecond, Iters: 200})
	if two.Throughput() <= one.Throughput() {
		t.Fatalf("two CPUs (%.0f ops/s) no faster than one (%.0f ops/s) on an unsaturated lock",
			two.Throughput(), one.Throughput())
	}
}
