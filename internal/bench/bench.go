// Package bench implements the paper's benchmark programs against the
// simulated machine: getpid (Table 2), the ctx context-switch ring and
// LIFO chain (Figure 1), the §6 memory suite (Figures 2-8), bonnie
// (Figures 9-11), crtdel (Figure 12), the Modified Andrew Benchmark
// (Table 3), lmbench's bw_pipe (Table 4) and bw_tcp (Table 5), ttcp UDP
// (Figure 13), and MAB over NFS (Tables 6-7).
//
// Every function here is deterministic: it returns the model's mean value
// for a single run. The experiment runner in package core performs the
// twenty-run protocol (§3) and injects the calibrated per-OS run-to-run
// noise, which is where the paper's Std Dev columns come from.
package bench

import (
	"repro/internal/cpu"
	"repro/internal/disk"
	"repro/internal/kernel"
	"repro/internal/osprofile"
	"repro/internal/sim"
)

// Platform bundles the hardware the paper benchmarked: the Pentium CPU and
// the benchmark disk (the HP 3725; the OS disk is not exercised by the
// timed benchmarks).
type Platform struct {
	CPU  cpu.CPU
	Disk func(rng *sim.RNG) *disk.Disk
}

// PaperPlatform returns tnt.stanford.edu as modelled.
func PaperPlatform() Platform {
	return Platform{
		CPU:  cpu.PentiumP54C100(),
		Disk: func(rng *sim.RNG) *disk.Disk { return disk.MustNew(disk.HP3725(), rng) },
	}
}

// GetpidIterations is the loop count of the system-call benchmark
// (Table 2: "100,000 iterations each").
const GetpidIterations = 100_000

// Getpid measures the mean time of one getpid() call over the benchmark's
// loop, per §4.
func Getpid(plat Platform, p *osprofile.Profile) sim.Duration {
	return getpidOn(kernel.MustMachine(p, 1))
}

// getpidOn runs the getpid loop on a prepared machine (possibly
// observed). The initial dispatch is not part of the loop.
func getpidOn(m *kernel.Machine) sim.Duration {
	t := m.SpawnThread("getpid-loop", []kernel.Op{{Kind: kernel.OpSyscall}}, GetpidIterations)
	return (m.Run() - t.FirstRun.Sub(0)) / GetpidIterations
}

// CtxSwitches is the per-run switch count of the ctx benchmark
// (Figure 1: "50,000 context switches each"). Runs with many processes
// use proportionally fewer laps; the mean is unaffected.
const CtxSwitches = 50_000

// CtxOrder selects the token-passing pattern of the ctx benchmark.
type CtxOrder int

const (
	// CtxRing passes the token around a ring of processes (the default).
	CtxRing CtxOrder = iota
	// CtxLIFO passes it back and forth through a chain (the Solaris-LIFO
	// variant of Figure 1).
	CtxLIFO
)

// Ctx measures the mean time per context switch (including the pipe
// operations, as the paper's numbers do) for the given number of
// processes.
func Ctx(plat Platform, p *osprofile.Profile, nproc int, order CtxOrder) sim.Duration {
	if nproc < 2 {
		panic("bench: ctx needs at least two processes")
	}
	return ctxOn(kernel.MustMachine(p, 1), nproc, order)
}

// ctxOn runs the ctx benchmark on a prepared machine (possibly observed).
// Timing starts when process 0 first runs and injects the token, after
// every process has been spawned.
func ctxOn(m *kernel.Machine, nproc int, order CtxOrder) sim.Duration {
	// Scale work down for big rings so every configuration does a few
	// thousand hops; the per-switch mean is what matters.
	hops := CtxSwitches
	if nproc > 16 {
		hops = CtxSwitches / nproc * 4
	}
	if hops < 4*nproc {
		hops = 4 * nproc
	}
	var first *kernel.Thread
	var switches int
	switch order {
	case CtxRing:
		first, switches = ctxRing(m, nproc, hops)
	case CtxLIFO:
		first, switches = ctxLIFO(m, nproc, hops)
	default:
		panic("bench: unknown ctx order")
	}
	return (m.Run() - first.FirstRun.Sub(0)) / sim.Duration(switches)
}

// pipeOp is a one-byte token transfer on p.
func pipeOp(kind kernel.OpKind, p *kernel.Pipe) kernel.Op {
	return kernel.Op{Kind: kind, P: p, N: 1}
}

// ctxRing builds the ring: process i reads from pipe i and writes to
// pipe (i+1) mod n; process 0 injects the token and absorbs it after the
// last lap. The token makes hops/n laps. It returns process 0 and the
// number of token passes.
func ctxRing(m *kernel.Machine, nproc, hops int) (*kernel.Thread, int) {
	pipes := make([]*kernel.Pipe, nproc)
	for i := range pipes {
		pipes[i] = m.NewPipe()
	}
	laps := hops / nproc
	if laps < 1 {
		laps = 1
	}
	var first *kernel.Thread
	for i := 0; i < nproc; i++ {
		read := pipeOp(kernel.OpRead, pipes[i])
		write := pipeOp(kernel.OpWrite, pipes[(i+1)%nproc])
		if i == 0 {
			first = m.SpawnThread("ring", []kernel.Op{write, read}, laps)
			continue
		}
		m.SpawnThread("ring", []kernel.Op{read, write}, laps)
	}
	return first, laps * nproc
}

// ctxLIFO builds the chain: the token travels 0→1→…→n-1 and back. One
// round trip is 2(n-1) hops. It returns process 0 and the number of
// token passes.
func ctxLIFO(m *kernel.Machine, nproc, hops int) (*kernel.Thread, int) {
	// up[i] carries the token from i to i+1; down[i] from i+1 to i.
	up := make([]*kernel.Pipe, nproc-1)
	down := make([]*kernel.Pipe, nproc-1)
	for i := range up {
		up[i] = m.NewPipe()
		down[i] = m.NewPipe()
	}
	trips := hops / (2 * (nproc - 1))
	if trips < 1 {
		trips = 1
	}
	var first *kernel.Thread
	for i := 0; i < nproc; i++ {
		var ops []kernel.Op
		switch {
		case i == 0:
			ops = []kernel.Op{pipeOp(kernel.OpWrite, up[0]), pipeOp(kernel.OpRead, down[0])}
		case i == nproc-1:
			ops = []kernel.Op{pipeOp(kernel.OpRead, up[i-1]), pipeOp(kernel.OpWrite, down[i-1])}
		default:
			ops = []kernel.Op{
				pipeOp(kernel.OpRead, up[i-1]), pipeOp(kernel.OpWrite, up[i]),
				pipeOp(kernel.OpRead, down[i]), pipeOp(kernel.OpWrite, down[i-1]),
			}
		}
		t := m.SpawnThread("chain", ops, trips)
		if i == 0 {
			first = t
		}
	}
	return first, trips * 2 * (nproc - 1)
}
