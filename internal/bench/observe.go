package bench

// This file holds the observed benchmark variants: each runs the
// identical workload as its plain counterpart — same machine, same seed,
// same charges, so the returned measurement is bit-identical — but with
// an obs.Recorder attached to the model and the model's counters folded
// into a metric snapshot afterwards. These feed `pentiumbench trace` and
// `pentiumbench metrics`.

import (
	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/netstack"
	"repro/internal/obs"
	"repro/internal/osprofile"
	"repro/internal/sim"
)

// TraceRingCap bounds every observed run's trace to the most recent
// events, the way Chrome's own tracing rings do. The benchmarks loop one
// operation tens of thousands of times, so an unbounded capture is
// hundreds of megabytes of identical iterations; the ring keeps the
// steady-state tail, which is the part worth looking at, and keeps
// exported traces Perfetto-sized. Dropping is deterministic (oldest
// first), so capped traces stay bit-identical across worker counts.
const TraceRingCap = 1 << 14

// Observation is the observability product of one observed benchmark run:
// the captured trace, the model's metric snapshot, and the run's total
// simulated time.
type Observation struct {
	// Process is the captured trace, named after the OS personality.
	Process obs.Process
	// Metrics is the model's counters and phase ledgers after the run.
	Metrics obs.Snapshot
	// Total is the run's total simulated time (the phase ledgers in
	// Metrics sum to it exactly for clocked models).
	Total sim.Duration
}

// captureMachine snapshots an observed kernel machine run.
func captureMachine(m *kernel.Machine, rec *obs.Recorder, p *osprofile.Profile) Observation {
	reg := obs.NewRegistry()
	m.FoldMetrics(reg, "kernel.")
	return Observation{
		Process: rec.Capture(p.String()),
		Metrics: reg.Snapshot(),
		Total:   m.Elapsed(),
	}
}

// GetpidObserved is Getpid with tracing and metrics.
func GetpidObserved(plat Platform, p *osprofile.Profile) (sim.Duration, Observation) {
	m := kernel.MustMachine(p, 1)
	rec := obs.NewRing(nil, TraceRingCap)
	m.Observe(rec)
	d := getpidOn(m)
	return d, captureMachine(m, rec, p)
}

// CtxObserved is Ctx with tracing and metrics: the Figure 1 decomposition
// of a context switch into syscall-entry, copy, wakeup and dispatch
// spans.
func CtxObserved(plat Platform, p *osprofile.Profile, nproc int, order CtxOrder) (sim.Duration, Observation) {
	return CtxSampled(plat, p, nproc, order, nil)
}

// CtxSampled is CtxObserved with a virtual-time time-series sampler
// attached to the machine (kernel.switches per window, kernel.runnable
// gauge). A nil sampler makes it exactly CtxObserved.
func CtxSampled(plat Platform, p *osprofile.Profile, nproc int, order CtxOrder, smp *obs.Sampler) (sim.Duration, Observation) {
	if nproc < 2 {
		panic("bench: ctx needs at least two processes")
	}
	m := kernel.MustMachine(p, 1)
	rec := obs.NewRing(nil, TraceRingCap)
	m.Observe(rec)
	m.SetSampler(smp)
	d := ctxOn(m, nproc, order)
	return d, captureMachine(m, rec, p)
}

// BwPipeObserved is BwPipe with tracing and metrics.
func BwPipeObserved(plat Platform, p *osprofile.Profile) (float64, Observation) {
	m := kernel.MustMachine(p, 1)
	rec := obs.NewRing(nil, TraceRingCap)
	m.Observe(rec)
	elapsed := bwPipeOn(m)
	return netstack.BandwidthMbps(BwPipeTotal, elapsed), captureMachine(m, rec, p)
}

// CrtdelObserved is Crtdel with tracing and metrics: the Figure 12
// decomposition of a create/delete cycle into VFS, copy, allocation,
// metadata-sync, disk-read and write-back spans. A fault injector's
// disk and cache faults ride the same charge paths, so the phase ledger
// stays exact under injection; zero-value injectors add nothing and the
// run is byte-identical to the unfaulted one.
func CrtdelObserved(plat Platform, p *osprofile.Profile, fileBytes int64, seed uint64, inj fault.Injectors) (sim.Duration, Observation) {
	return CrtdelSampled(plat, p, fileBytes, seed, inj, nil)
}

// CrtdelSampled is CrtdelObserved with a virtual-time time-series
// sampler attached to the benchmark disk (disk.ops, disk.busy_ns and
// injected fault time per window). A nil sampler makes it exactly
// CrtdelObserved.
func CrtdelSampled(plat Platform, p *osprofile.Profile, fileBytes int64, seed uint64, inj fault.Injectors, smp *obs.Sampler) (sim.Duration, Observation) {
	clock, fsys := crtdelSetup(plat, p, seed)
	fsys.SetFaults(inj)
	fsys.Disk().Sample(clock, smp)
	rec := obs.NewRing(clock, TraceRingCap)
	fsys.Observe(rec)
	d := crtdelOn(clock, fsys, fileBytes)
	reg := obs.NewRegistry()
	fsys.FoldMetrics(reg, "fs.")
	fsys.Disk().Stats().FoldMetrics(reg, "disk.")
	inj.FoldMetrics(reg, "fault.")
	return d, Observation{
		Process: rec.Capture(p.String()),
		Metrics: reg.Snapshot(),
		Total:   clock.Now().Sub(0),
	}
}

// BwTCPObserved is BwTCP with tracing and metrics: the sliding-window
// walk decomposed into segment, ack and scheduler-switch time (plus
// fault time when an injector drops segments or delays acks — the
// four-term identity still sums to the elapsed transfer exactly).
func BwTCPObserved(p *osprofile.Profile, windowOverride int, inj fault.Injectors) (float64, Observation) {
	c := netstack.MustTCP(p)
	c.WindowOverride = windowOverride
	c.Faults = inj.Net
	rec := obs.NewRing(nil, TraceRingCap)
	elapsed, st := c.TransferObserved(BwTCPTotal, rec)
	reg := obs.NewRegistry()
	st.FoldMetrics(reg, "tcp.")
	inj.FoldMetrics(reg, "fault.")
	return netstack.BandwidthMbps(BwTCPTotal, elapsed), Observation{
		Process: rec.Capture(p.String()),
		Metrics: reg.Snapshot(),
		Total:   elapsed,
	}
}

// TTCPObserved is TTCP with metrics: the transfer's time decomposed into
// per-packet processing, data copies, syscall entry, and (under
// injection) duplicate-delivery fault time. The components are
// accumulated per datagram exactly as Transfer charges them, so they
// sum to the transfer time to the nanosecond. Oversized packet sizes
// clamp to the personality's maximum datagram, as in TTCP.
func TTCPObserved(p *osprofile.Profile, packetSize int, inj fault.Injectors) (float64, Observation) {
	u := netstack.MustUDP(p)
	u.Faults = inj.Net
	if packetSize > u.MaxDatagram() {
		packetSize = u.MaxDatagram()
	}
	st := u.TransferStats(TTCPTotal, packetSize)
	total := st.Total()
	reg := obs.NewRegistry()
	reg.Counter("udp.packets").Add(float64(st.Packets))
	reg.Counter("udp.perpacket_us").Add(st.PerPacket.Microseconds())
	reg.Counter("udp.copy_us").Add(st.Copy.Microseconds())
	reg.Counter("udp.syscall_us").Add(st.Syscall.Microseconds())
	if st.FaultTime > 0 {
		reg.Counter("udp.fault_us").Add(st.FaultTime.Microseconds())
	}
	inj.FoldMetrics(reg, "fault.")
	rec := obs.NewRing(nil, TraceRingCap)
	return netstack.BandwidthMbps(TTCPTotal, total), Observation{
		Process: rec.Capture(p.String()),
		Metrics: reg.Snapshot(),
		Total:   total,
	}
}
