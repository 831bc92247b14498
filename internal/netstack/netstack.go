// Package netstack models the network protocol implementations of §9: UDP
// and TCP over the loopback interface, plus the 10 Mb/s Ethernet link used
// by the NFS experiments of §10.
//
// The paper benchmarks loopback deliberately ("we wanted to measure the
// best possible performance"), so UDP and TCP throughput here is purely a
// function of protocol-stack CPU costs: per-packet processing, data
// copies, and — decisive for Linux 1.2.8 — the TCP send window. The TCP
// model is a genuine sliding-window simulation: the sender spends CPU per
// segment until the window closes, control switches to the receiver, which
// consumes segments and acknowledges, reopening the window. Setting the
// window to one packet reproduces Linux's collapse in Table 5; widening it
// is ablation A5.
package netstack

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/osprofile"
	"repro/internal/sim"
)

// UDP models a datagram path between two processes over loopback.
type UDP struct {
	os *osprofile.Profile
	// Faults, when non-nil, perturbs datagrams (loss, duplication,
	// reordering). Nil is the unfaulted path, byte-identical to builds
	// without the fault layer.
	Faults *fault.NetInjector
}

// NewUDP builds the UDP model for a personality. A personality whose
// network parameters cannot carry datagrams is a returned error.
func NewUDP(p *osprofile.Profile) (*UDP, error) {
	if p.Net.UDPMaxDatagram <= 0 {
		return nil, fmt.Errorf("netstack: %s: max datagram must be positive (have %d)",
			p, p.Net.UDPMaxDatagram)
	}
	return &UDP{os: p}, nil
}

// MustUDP is NewUDP for the built-in personalities, whose parameters are
// validated at load time.
func MustUDP(p *osprofile.Profile) *UDP {
	u, err := NewUDP(p)
	if err != nil {
		panic(err)
	}
	return u
}

// MaxDatagram returns the personality's largest sendable datagram.
// Workloads clamp their packet size to it (a real ttcp would get
// EMSGSIZE past it).
func (u *UDP) MaxDatagram() int { return u.os.Net.UDPMaxDatagram }

// UDPBreakdown attributes the CPU time one datagram of a given payload
// size consumes end to end to its components: sender syscall and
// packetisation, the copies down and up (the per-KB constant already
// aggregates the path's copy count — Linux's includes its two unnecessary
// extra copies), and receiver delivery.
type UDPBreakdown struct {
	// PerPacket is the fixed protocol processing per datagram.
	PerPacket sim.Duration
	// Copy is the data movement down and up the stack.
	Copy sim.Duration
	// Syscall is both endpoints' system-call entry.
	Syscall sim.Duration
}

// Total returns the summed packet time (integer durations, so exact).
func (b UDPBreakdown) Total() sim.Duration { return b.PerPacket + b.Copy + b.Syscall }

// PacketBreakdown returns the decomposition of one datagram's CPU time.
func (u *UDP) PacketBreakdown(size int) UDPBreakdown {
	if size <= 0 {
		panic("netstack: datagram size must be positive")
	}
	if size > u.os.Net.UDPMaxDatagram {
		panic(fmt.Sprintf("netstack: datagram %d exceeds max %d", size, u.os.Net.UDPMaxDatagram))
	}
	n := &u.os.Net
	return UDPBreakdown{
		PerPacket: n.UDPPerPacket,
		Copy:      sim.Duration(int64(n.UDPCopyPerKB) * int64(size) / 1024),
		// Both endpoints pay syscall entry.
		Syscall: 2 * (u.os.Kernel.Syscall + u.os.Kernel.ReadWriteExtra),
	}
}

// UDPTransferStats decomposes a datagram transfer into the components
// its time went to. PerPacket + Copy + Syscall + FaultTime equals the
// transfer's elapsed time exactly.
type UDPTransferStats struct {
	// Packets is the number of datagrams sent.
	Packets int
	// PerPacket, Copy and Syscall attribute the unfaulted CPU time.
	PerPacket, Copy, Syscall sim.Duration
	// FaultTime is time added by injected faults (duplicate deliveries).
	FaultTime sim.Duration
}

// Total returns the summed transfer time.
func (s UDPTransferStats) Total() sim.Duration {
	return s.PerPacket + s.Copy + s.Syscall + s.FaultTime
}

// Transfer returns the time to move totalBytes in datagrams of the given
// size (the ttcp workload: 4 MB per iteration, §9.2).
func (u *UDP) Transfer(totalBytes, packetSize int) sim.Duration {
	return u.TransferStats(totalBytes, packetSize).Total()
}

// TransferStats is Transfer with the per-component decomposition. With a
// fault injector attached, each datagram draws its fate: a lost datagram
// is fire-and-forget (ttcp over UDP never retransmits — the send cost is
// already paid and the loss shows only in the counters), a duplicated
// datagram charges the receive-side share of a packet time again, and a
// reordered datagram is counted but uncharged (UDP does not resequence).
func (u *UDP) TransferStats(totalBytes, packetSize int) UDPTransferStats {
	if totalBytes <= 0 {
		panic("netstack: transfer size must be positive")
	}
	var st UDPTransferStats
	for sent := 0; sent < totalBytes; {
		n := packetSize
		if rem := totalBytes - sent; n > rem {
			n = rem
		}
		b := u.PacketBreakdown(n)
		st.Packets++
		st.PerPacket += b.PerPacket
		st.Copy += b.Copy
		st.Syscall += b.Syscall
		u.Faults.DropUDP()
		if u.Faults.DupUDP() {
			// The copy arrives too: the receiver repeats its half of the
			// packet processing and delivery work.
			st.FaultTime += b.Total() / 2
		}
		u.Faults.ReorderUDP()
		sent += n
	}
	return st
}

// BandwidthMbps converts a transfer into megabits per second.
func BandwidthMbps(bytes int, d sim.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) * 8 / d.Seconds() / 1e6
}

// TCP models a stream connection between two local processes.
type TCP struct {
	os *osprofile.Profile
	// WindowOverride, when positive, replaces the personality's window
	// (ablation A5). Zero means use the profile.
	WindowOverride int
	// Faults, when non-nil, injects segment loss (retransmit after an
	// RTO with exponential backoff) and delayed acknowledgements. Nil is
	// the unfaulted path, byte-identical to builds without the layer.
	Faults *fault.NetInjector
}

// NewTCP builds the TCP model for a personality. A personality that
// cannot form segments is a returned error.
func NewTCP(p *osprofile.Profile) (*TCP, error) {
	if p.Net.MSS <= 0 {
		return nil, fmt.Errorf("netstack: %s: MSS must be positive (have %d)", p, p.Net.MSS)
	}
	if p.Net.TCPWindowPackets <= 0 {
		return nil, fmt.Errorf("netstack: %s: TCP window must be positive (have %d packets)",
			p, p.Net.TCPWindowPackets)
	}
	return &TCP{os: p}, nil
}

// MustTCP is NewTCP for the built-in personalities, whose parameters are
// validated at load time.
func MustTCP(p *osprofile.Profile) *TCP {
	t, err := NewTCP(p)
	if err != nil {
		panic(err)
	}
	return t
}

// Window returns the effective send window in packets.
func (t *TCP) Window() int {
	if t.WindowOverride > 0 {
		return t.WindowOverride
	}
	return t.os.Net.TCPWindowPackets
}

// segTime is the CPU cost of processing one MSS-sized segment through one
// endpoint pair (send-side formation plus receive-side delivery).
func (t *TCP) segTime(payload int) sim.Duration {
	n := &t.os.Net
	return n.TCPPerPacket + sim.Duration(int64(n.TCPCopyPerKB)*int64(payload)/1024)
}

// TCPStats decomposes a TransferObserved walk: the event counts of the
// sliding-window walk and the time each activity consumed. SegTime +
// AckTime + SwitchTime + FaultTime equals the elapsed transfer time
// exactly — every duration the walk accrues is tagged with one of the
// four.
type TCPStats struct {
	// Segments is the number of MSS-or-smaller segments sent.
	Segments uint64
	// Acks is the number of cumulative acknowledgements.
	Acks uint64
	// WindowStalls counts the times the sender ran out of window credit
	// with data still to send — the Linux 1.2.8 collapse is this counter
	// exploding (one stall per segment at window 1).
	WindowStalls uint64
	// Switches is the number of scheduler switches (two per ack cycle).
	Switches uint64
	// Retransmits counts segments re-sent after injected loss.
	Retransmits uint64
	// SegTime, AckTime and SwitchTime attribute the unfaulted time.
	SegTime, AckTime, SwitchTime sim.Duration
	// FaultTime is injected time: wasted transmissions, RTO waits, and
	// delayed acks. Zero without a fault injector.
	FaultTime sim.Duration
}

// FoldMetrics adds the transfer decomposition into a registry under the
// given prefix (e.g. "tcp."). Fault counters fold only when faults
// actually fired, so unfaulted metric snapshots are unchanged.
func (s TCPStats) FoldMetrics(reg *obs.Registry, prefix string) {
	reg.Counter(prefix + "segments").Add(float64(s.Segments))
	reg.Counter(prefix + "acks").Add(float64(s.Acks))
	reg.Counter(prefix + "window_stalls").Add(float64(s.WindowStalls))
	reg.Counter(prefix + "switches").Add(float64(s.Switches))
	reg.Counter(prefix + "seg_us").Add(s.SegTime.Microseconds())
	reg.Counter(prefix + "ack_us").Add(s.AckTime.Microseconds())
	reg.Counter(prefix + "switch_us").Add(s.SwitchTime.Microseconds())
	if s.Retransmits > 0 || s.FaultTime > 0 {
		reg.Counter(prefix + "retransmits").Add(float64(s.Retransmits))
		reg.Counter(prefix + "fault_us").Add(s.FaultTime.Microseconds())
	}
}

// TransferObserved simulates moving totalBytes through the connection and
// returns the elapsed time. The simulation walks the sliding window: the
// sender emits segments while it has window credit; when the window
// closes, the scheduler switches to the receiver, which drains the
// in-flight segments, acknowledges (AckCost), and control returns to the
// sender (a second switch). The walk is decomposed into TCPStats and,
// when rec is non-nil, traced: send bursts become spans on a
// "tcp sender" track (cost = segments in the burst) and drain-and-ack
// cycles spans on a "tcp receiver" track (cost = segments drained), both
// stamped with elapsed transfer time as the virtual timeline. Observing
// never changes the elapsed result — the walk is the same code.
func (t *TCP) TransferObserved(totalBytes int, rec *obs.Recorder) (sim.Duration, TCPStats) {
	if totalBytes <= 0 {
		panic("netstack: transfer size must be positive")
	}
	n := &t.os.Net
	k := &t.os.Kernel
	window := t.Window()
	if window <= 0 {
		panic("netstack: window must be positive")
	}
	switchCost := k.CtxBase
	if k.Scheduler == osprofile.SchedScanAll {
		switchCost += sim.Duration(2 * int64(k.CtxPerTask))
	}
	var sendTrack, recvTrack obs.TrackID
	if rec.Enabled() {
		sendTrack = rec.Track("tcp sender")
		recvTrack = rec.Track("tcp receiver")
	}

	var st TCPStats
	var elapsed sim.Duration
	remaining := totalBytes
	credit := window
	inFlight := 0
	for remaining > 0 || inFlight > 0 {
		if remaining > 0 && credit > 0 {
			burstStart := elapsed
			burst := 0
			// Unfaulted full-MSS segments in a burst are identical integer
			// charges, so the whole run collapses to one multiplication —
			// exact, since summing k equal durations is k*d.
			if t.Faults == nil {
				if k := min(credit, remaining/n.MSS); k > 0 {
					d := t.segTime(n.MSS)
					elapsed += d * sim.Duration(k)
					st.Segments += uint64(k)
					st.SegTime += d * sim.Duration(k)
					remaining -= k * n.MSS
					credit -= k
					inFlight += k
					burst += k
				}
			}
			for remaining > 0 && credit > 0 {
				payload := n.MSS
				if payload > remaining {
					payload = remaining
				}
				d := t.segTime(payload)
				// Injected segment loss: the transmission was wasted, the
				// sender sits out the retransmit timeout (exponential
				// backoff on repeated loss of the same segment), then
				// sends again. Both the wasted CPU and the wait are fault
				// time, keeping the unfaulted ledger terms untouched.
				for attempt := 0; t.Faults.DropSegment(); attempt++ {
					w := t.Faults.RTOWait(attempt)
					elapsed += d + w
					st.FaultTime += d + w
					st.Retransmits++
				}
				elapsed += d
				st.Segments++
				st.SegTime += d
				remaining -= payload
				credit--
				inFlight++
				burst++
			}
			if rec.Enabled() {
				rec.BeginAt(sim.Time(burstStart), sendTrack, "send burst")
				rec.EndAt(sim.Time(elapsed), sendTrack, "send burst", float64(burst))
			}
			continue
		}
		// Window closed (or data exhausted): switch to the receiver,
		// which drains everything in flight and acks cumulatively, then
		// switch back.
		if remaining > 0 {
			st.WindowStalls++
		}
		drainStart := elapsed
		elapsed += switchCost
		// An injected delayed ack holds the cumulative ack back; the
		// sender's window stays shut for the duration.
		ackExtra := t.Faults.AckDelay()
		elapsed += n.AckCost + ackExtra
		elapsed += switchCost
		st.Switches += 2
		st.SwitchTime += 2 * switchCost
		st.Acks++
		st.AckTime += n.AckCost
		st.FaultTime += ackExtra
		if rec.Enabled() {
			rec.BeginAt(sim.Time(drainStart), recvTrack, "drain+ack")
			rec.EndAt(sim.Time(elapsed), recvTrack, "drain+ack", float64(inFlight))
		}
		credit += inFlight
		inFlight = 0
	}
	return elapsed, st
}

// Link models the shared 10 Mb/s Ethernet between NFS client and server.
type Link struct {
	// BandwidthMbps is the wire rate.
	BandwidthMbps float64
	// FrameOverhead is per-frame latency: preamble, inter-frame gap,
	// driver work on both ends.
	FrameOverhead sim.Duration
	// MTU is the maximum frame payload.
	MTU int
}

// Ethernet10 returns the paper machine's 3Com Etherlink III on a 10 Mb/s
// segment.
func Ethernet10() *Link {
	return &Link{BandwidthMbps: 10, FrameOverhead: 120 * sim.Microsecond, MTU: 1500}
}

// TransmitTime returns the wire time for a payload of the given size,
// including fragmentation into MTU-sized frames.
func (l *Link) TransmitTime(bytes int) sim.Duration {
	if bytes <= 0 {
		panic("netstack: transmit of non-positive size")
	}
	frames := (bytes + l.MTU - 1) / l.MTU
	wire := sim.Duration(float64(bytes) * 8 / (l.BandwidthMbps * 1e6) * float64(sim.Second))
	return wire + sim.Duration(frames)*l.FrameOverhead
}
