package bench

import (
	"repro/internal/kernel"
	"repro/internal/netstack"
	"repro/internal/obs"
	"repro/internal/osprofile"
)

// BwPipeTotal and BwPipeChunk are lmbench bw_pipe's parameters (§9.1):
// "transfers 50 megabytes in 64-kilobyte chunks".
const (
	BwPipeTotal = 50 << 20
	BwPipeChunk = 64 << 10
)

// BwPipe measures pipe bandwidth in megabits per second (Table 4) by
// running the two-process transfer on the simulated kernel.
func BwPipe(plat Platform, p *osprofile.Profile) float64 {
	return (*Scope)(nil).BwPipe(plat, p)
}

// BwPipe is BwPipe observed by s. The transfer is timed from the
// writer's first run to the end.
func (s *Scope) BwPipe(plat Platform, p *osprofile.Profile) float64 {
	m := s.bwPipe(p)
	elapsed := m.Run() - m.Threads()[0].FirstRun.Sub(0)
	s.captureMachine(m, p)
	return netstack.BandwidthMbps(BwPipeTotal, elapsed)
}

// bwPipe builds the transfer on a machine of s's, writer first.
func (s *Scope) bwPipe(p *osprofile.Profile) *kernel.Machine {
	m := s.machine(p)
	pipe := m.NewPipe()
	m.SpawnThread("bw_pipe-writer", []kernel.Op{{Kind: kernel.OpWrite, P: pipe, N: BwPipeChunk}}, BwPipeTotal/BwPipeChunk)
	m.SpawnThread("bw_pipe-reader", []kernel.Op{{Kind: kernel.OpRead, P: pipe, N: BwPipeTotal}}, 1)
	return m
}

// TTCPTotal is the UDP benchmark's per-iteration transfer (§9.2:
// "transferring 4 megabytes every iteration").
const TTCPTotal = 4 << 20

// TTCP measures UDP bandwidth in megabits per second at one packet size
// (Figure 13). Packet sizes beyond the personality's maximum datagram
// are clamped to it, the way a real ttcp would fall back after EMSGSIZE.
func TTCP(p *osprofile.Profile, packetSize int) float64 {
	return (*Scope)(nil).TTCP(p, packetSize)
}

// TTCP is TTCP observed by s: the transfer's time decomposed into
// per-packet processing, data copies, syscall entry, and (under
// injection) duplicate-delivery fault time. The components are
// accumulated per datagram exactly as the transfer charges them, so
// they sum to the transfer time to the nanosecond.
func (s *Scope) TTCP(p *osprofile.Profile, packetSize int) float64 {
	u := netstack.MustUDP(p)
	u.Faults = s.faults().Net
	if packetSize > u.MaxDatagram() {
		packetSize = u.MaxDatagram()
	}
	st := u.TransferStats(TTCPTotal, packetSize)
	total := st.Total()
	s.capture(p, total, func(reg *obs.Registry) {
		reg.Counter("udp.packets").Add(float64(st.Packets))
		reg.Counter("udp.perpacket_us").Add(st.PerPacket.Microseconds())
		reg.Counter("udp.copy_us").Add(st.Copy.Microseconds())
		reg.Counter("udp.syscall_us").Add(st.Syscall.Microseconds())
		if st.FaultTime > 0 {
			reg.Counter("udp.fault_us").Add(st.FaultTime.Microseconds())
		}
	})
	return netstack.BandwidthMbps(TTCPTotal, total)
}

// TTCPSweepSizes returns Figure 13's packet-size sweep.
func TTCPSweepSizes() []int {
	return []int{64, 128, 256, 512, 1024, 2048, 4096, 8192}
}

// BwTCPTotal is lmbench bw_tcp's transfer size (§9.3: "transfers 3
// megabytes from one process to another ... using a 48K buffer").
const BwTCPTotal = 3 << 20

// BwTCP measures TCP bandwidth in megabits per second (Table 5). A
// window override of 0 uses the personality's window; anything else is
// the A5 ablation.
func BwTCP(p *osprofile.Profile, windowOverride int) float64 {
	return (*Scope)(nil).BwTCP(p, windowOverride)
}

// BwTCP is BwTCP observed by s: the sliding-window walk decomposed into
// segment, ack and scheduler-switch time, plus fault time when an
// injector drops segments or delays acks. The four terms sum to the
// elapsed transfer exactly.
func (s *Scope) BwTCP(p *osprofile.Profile, windowOverride int) float64 {
	c := netstack.MustTCP(p)
	c.WindowOverride = windowOverride
	c.Faults = s.faults().Net
	elapsed, st := c.TransferObserved(BwTCPTotal, s.trace(nil))
	s.capture(p, elapsed, func(reg *obs.Registry) { st.FoldMetrics(reg, "tcp.") })
	return netstack.BandwidthMbps(BwTCPTotal, elapsed)
}
