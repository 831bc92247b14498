package bench

import (
	"repro/internal/fs"
	"repro/internal/kernel"
	"repro/internal/osprofile"
	"repro/internal/sim"
)

// This file implements the lmbench-style latency probes the paper draws
// on beyond its headline exhibits (McVoy's lmbench supplied bw_pipe,
// bw_tcp and ideas behind ctx; §5 additionally reports a self-pipe
// round-trip measurement for Solaris). They are not paper exhibits, but a
// user evaluating the modelled systems wants them, and they
// cross-validate the calibration: SelfPipe must reproduce §5's 80 µs on
// Solaris by construction.

// SelfPipe measures the time to send a byte from a process through a pipe
// back to the same process: one write(2) plus one read(2) with no context
// switch, §5's isolation of pipe overhead from scheduling.
func SelfPipe(plat Platform, p *osprofile.Profile) sim.Duration {
	m := kernel.MustMachine(p, 1)
	pipe := m.NewPipe()
	const iters = 1000
	t := m.SpawnThread("selfpipe", []kernel.Op{pipeOp(kernel.OpWrite, pipe), pipeOp(kernel.OpRead, pipe)}, iters)
	m.Run()
	return t.Retired.Sub(t.FirstRun) / iters
}

// LatProc measures process creation: the time for fork+exit (when exec is
// false) or fork+exec+exit (when true), lmbench's lat_proc.
func LatProc(plat Platform, p *osprofile.Profile, exec bool) sim.Duration {
	m := kernel.MustMachine(p, 1)
	const iters = 100
	ops := []kernel.Op{{Kind: kernel.OpFork}}
	if exec {
		ops = append(ops, kernel.Op{Kind: kernel.OpExec})
	}
	t := m.SpawnThread("lat_proc", ops, iters)
	m.Run()
	return t.Retired.Sub(t.FirstRun) / iters
}

// LatFSCreate measures 0-byte file creation+deletion, lmbench's lat_fs
// at its smallest size — the purest view of the metadata policies.
func LatFSCreate(plat Platform, p *osprofile.Profile, seed uint64) sim.Duration {
	clock := &sim.Clock{}
	fsys := fs.MustNew(clock, plat.Disk(sim.NewRNG(seed)), p)
	const iters = 50
	start := clock.Now()
	for i := 0; i < iters; i++ {
		f, err := fsys.Create("/lat_fs.tmp")
		if err != nil {
			panic(err)
		}
		f.Close()
		if err := fsys.Unlink("/lat_fs.tmp"); err != nil {
			panic(err)
		}
	}
	return clock.Now().Sub(start) / iters
}

// LatPipe measures pipe latency: the time to pass a byte between two
// processes and back (one full round trip), lmbench's lat_pipe. Unlike
// Ctx it uses exactly two processes and reports the round trip rather
// than the per-switch time.
func LatPipe(plat Platform, p *osprofile.Profile) sim.Duration {
	m := kernel.MustMachine(p, 1)
	ping, pong := m.NewPipe(), m.NewPipe()
	const iters = 1000
	parent := m.SpawnThread("lat_pipe-parent", []kernel.Op{pipeOp(kernel.OpWrite, ping), pipeOp(kernel.OpRead, pong)}, iters)
	m.SpawnThread("lat_pipe-child", []kernel.Op{pipeOp(kernel.OpRead, ping), pipeOp(kernel.OpWrite, pong)}, iters)
	m.Run()
	return parent.Retired.Sub(parent.FirstRun) / iters
}

// LatencyReport bundles the probe results for one system.
type LatencyReport struct {
	OS         string
	Syscall    sim.Duration
	SelfPipe   sim.Duration
	PipeRT     sim.Duration
	Fork       sim.Duration
	ForkExec   sim.Duration
	FSCreate   sim.Duration
	CtxTwoProc sim.Duration
}

// Latencies runs every probe for one system.
func Latencies(plat Platform, p *osprofile.Profile, seed uint64) LatencyReport {
	return LatencyReport{
		OS:         p.String(),
		Syscall:    Getpid(plat, p),
		SelfPipe:   SelfPipe(plat, p),
		PipeRT:     LatPipe(plat, p),
		Fork:       LatProc(plat, p, false),
		ForkExec:   LatProc(plat, p, true),
		FSCreate:   LatFSCreate(plat, p, seed),
		CtxTwoProc: Ctx(plat, p, 2, CtxRing),
	}
}
