package bench

import (
	"repro/internal/kernel"
	"repro/internal/netstack"
	"repro/internal/osprofile"
	"repro/internal/sim"
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
	return netstack.BandwidthMbps(BwPipeTotal, bwPipeOn(kernel.MustMachine(p, 1)))
}

// bwPipeOn runs the bw_pipe transfer on a prepared machine (possibly
// observed) and returns the elapsed transfer time, from the writer's
// first run to the end.
func bwPipeOn(m *kernel.Machine) sim.Duration {
	pipe := m.NewPipe()
	writer := m.SpawnThread("bw_pipe-writer", []kernel.Op{{Kind: kernel.OpWrite, P: pipe, N: BwPipeChunk}}, BwPipeTotal/BwPipeChunk)
	m.SpawnThread("bw_pipe-reader", []kernel.Op{{Kind: kernel.OpRead, P: pipe, N: BwPipeTotal}}, 1)
	return m.Run() - writer.FirstRun.Sub(0)
}

// TTCPTotal is the UDP benchmark's per-iteration transfer (§9.2:
// "transferring 4 megabytes every iteration").
const TTCPTotal = 4 << 20

// TTCP measures UDP bandwidth in megabits per second at one packet size
// (Figure 13). Packet sizes beyond the personality's maximum datagram
// are clamped to it, the way a real ttcp would fall back after EMSGSIZE.
func TTCP(p *osprofile.Profile, packetSize int) float64 {
	u := netstack.MustUDP(p)
	if packetSize > u.MaxDatagram() {
		packetSize = u.MaxDatagram()
	}
	return netstack.BandwidthMbps(TTCPTotal, u.Transfer(TTCPTotal, packetSize))
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
	c := netstack.MustTCP(p)
	c.WindowOverride = windowOverride
	return netstack.BandwidthMbps(BwTCPTotal, c.Transfer(BwTCPTotal))
}
