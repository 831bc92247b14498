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
	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/obs"
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

// TraceRingCap bounds every observed run's trace to the most recent
// events, the way Chrome's own tracing rings do. The benchmarks loop one
// operation tens of thousands of times, so an unbounded capture is
// hundreds of megabytes of identical iterations; the ring keeps the
// steady-state tail, which is the part worth looking at, and keeps
// exported traces Perfetto-sized. Dropping is deterministic (oldest
// first), so capped traces stay bit-identical across worker counts.
const TraceRingCap = 1 << 14

// Scope observes one benchmark run and injects faults into it. Each
// observable benchmark is a Scope method, and the package function of
// the same name runs that method on a nil Scope, so an observed run
// executes the plain run's code: same machine, same seed, same charges,
// and a bit-identical measurement. A nil *Scope observes and injects
// nothing.
type Scope struct {
	// Sampler, when non-nil, records the run's virtual-time time series:
	// the scheduler's switches and runnable count on the kernel
	// benchmarks, the benchmark disk's operations and fault time under
	// Crtdel.
	Sampler *obs.Sampler
	// Faults are injected into the hardware the run models: the disk
	// and buffer cache under Crtdel and MABNFS's server, the network
	// under BwTCP, TTCP and MABNFS. The zero value injects nothing, and
	// the injectors' counters join Metrics.
	Faults fault.Injectors

	// Process is the run's trace, named after the OS personality and
	// bounded by TraceRingCap; clockless models capture an empty one.
	Process obs.Process
	// Metrics is the model's counters and phase ledgers after the run.
	Metrics obs.Snapshot
	// Total is the run's total simulated time (the phase ledgers in
	// Metrics sum to it exactly for clocked models).
	Total sim.Duration

	rec *obs.Recorder
}

// faults is s's fault injectors; a nil s has none.
func (s *Scope) faults() fault.Injectors {
	if s == nil {
		return fault.Injectors{}
	}
	return s.Faults
}

// trace starts the run's trace, stamped from clock (nil for models that
// stamp their own events), and returns its recorder; nil for a nil s.
func (s *Scope) trace(clock *sim.Clock) *obs.Recorder {
	if s == nil {
		return nil
	}
	s.rec = obs.NewRing(clock, TraceRingCap)
	return s.rec
}

// capture ends the run: s takes the trace, the counters fold adds to a
// fresh registry, the injectors' counters, and the run's total time. A
// nil s records nothing.
func (s *Scope) capture(p *osprofile.Profile, total sim.Duration, fold func(reg *obs.Registry)) {
	if s == nil {
		return
	}
	if s.rec == nil {
		s.trace(nil)
	}
	reg := obs.NewRegistry()
	fold(reg)
	s.Faults.FoldMetrics(reg, "fault.")
	s.Process = s.rec.Capture(p.String())
	s.Metrics = reg.Snapshot()
	s.Total = total
	s.rec = nil
}

// machine builds a kernel benchmark's uniprocessor with s's trace and
// sampler attached.
func (s *Scope) machine(p *osprofile.Profile) *kernel.Machine {
	m := kernel.MustMachine(p, 1)
	if s != nil {
		m.Observe(s.trace(nil))
		m.SetSampler(s.Sampler)
	}
	return m
}

// captureMachine ends a kernel benchmark's run.
func (s *Scope) captureMachine(m *kernel.Machine, p *osprofile.Profile) {
	s.capture(p, m.Elapsed(), func(reg *obs.Registry) { m.FoldMetrics(reg, "kernel.") })
}

// GetpidIterations is the loop count of the system-call benchmark
// (Table 2: "100,000 iterations each").
const GetpidIterations = 100_000

// Getpid measures the mean time of one getpid() call over the benchmark's
// loop, per §4.
func Getpid(plat Platform, p *osprofile.Profile) sim.Duration {
	return (*Scope)(nil).Getpid(plat, p)
}

// Getpid is Getpid observed by s. The initial dispatch is not part of
// the loop.
func (s *Scope) Getpid(plat Platform, p *osprofile.Profile) sim.Duration {
	m := s.getpid(p)
	d := (m.Run() - m.Threads()[0].FirstRun.Sub(0)) / GetpidIterations
	s.captureMachine(m, p)
	return d
}

// getpid builds the getpid loop on a machine of s's.
func (s *Scope) getpid(p *osprofile.Profile) *kernel.Machine {
	m := s.machine(p)
	m.SpawnThread("getpid-loop", []kernel.Op{{Kind: kernel.OpSyscall}}, GetpidIterations)
	return m
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
	return (*Scope)(nil).Ctx(plat, p, nproc, order)
}

// Ctx is Ctx observed by s: the Figure 1 decomposition of a context
// switch into syscall-entry, copy, wakeup and dispatch spans. Timing
// starts when process 0 first runs and injects the token, after every
// process has been spawned.
func (s *Scope) Ctx(plat Platform, p *osprofile.Profile, nproc int, order CtxOrder) sim.Duration {
	m, switches := s.ctx(p, nproc, order)
	d := (m.Run() - m.Threads()[0].FirstRun.Sub(0)) / sim.Duration(switches)
	s.captureMachine(m, p)
	return d
}

// ctx builds the ring or chain on a machine of s's, process 0 first, and
// returns it with the number of token passes.
func (s *Scope) ctx(p *osprofile.Profile, nproc int, order CtxOrder) (*kernel.Machine, int) {
	if nproc < 2 {
		panic("bench: ctx needs at least two processes")
	}
	m := s.machine(p)
	// Scale work down for big rings so every configuration does a few
	// thousand hops; the per-switch mean is what matters.
	hops := CtxSwitches
	if nproc > 16 {
		hops = CtxSwitches / nproc * 4
	}
	if hops < 4*nproc {
		hops = 4 * nproc
	}
	switch order {
	case CtxRing:
		return m, ctxRing(m, nproc, hops)
	case CtxLIFO:
		return m, ctxLIFO(m, nproc, hops)
	}
	panic("bench: unknown ctx order")
}

// pipeOp is a one-byte token transfer on p.
func pipeOp(kind kernel.OpKind, p *kernel.Pipe) kernel.Op {
	return kernel.Op{Kind: kind, P: p, N: 1}
}

// ctxRing builds the ring: process i reads from pipe i and writes to
// pipe (i+1) mod n; process 0 injects the token and absorbs it after the
// last lap. The token makes hops/n laps. It returns the number of token
// passes.
func ctxRing(m *kernel.Machine, nproc, hops int) int {
	pipes := make([]*kernel.Pipe, nproc)
	for i := range pipes {
		pipes[i] = m.NewPipe()
	}
	laps := hops / nproc
	if laps < 1 {
		laps = 1
	}
	for i := 0; i < nproc; i++ {
		read := pipeOp(kernel.OpRead, pipes[i])
		write := pipeOp(kernel.OpWrite, pipes[(i+1)%nproc])
		if i == 0 {
			m.SpawnThread("ring", []kernel.Op{write, read}, laps)
			continue
		}
		m.SpawnThread("ring", []kernel.Op{read, write}, laps)
	}
	return laps * nproc
}

// ctxLIFO builds the chain: the token travels 0→1→…→n-1 and back. One
// round trip is 2(n-1) hops. It returns the number of token passes.
func ctxLIFO(m *kernel.Machine, nproc, hops int) int {
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
		m.SpawnThread("chain", ops, trips)
	}
	return trips * 2 * (nproc - 1)
}
