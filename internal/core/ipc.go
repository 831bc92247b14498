package core

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/fault"
	"repro/internal/osprofile"
	"repro/internal/sim"
	"repro/internal/stats"
)

// The I1 exhibit compares the three classic IPC transports — pipes, UDP
// sockets, and shared memory — over a message-size sweep, after
// Bell-Thomas' FreeBSD IPC study (PAPERS.md). The transports reuse the
// models already calibrated elsewhere in the repo: the kernel pipe
// (Table 4), the netstack UDP path (Figure 13), and the §6 cache
// hierarchy for shared-memory line traffic.

// IPCMsgSizes is the message-size sweep (log-spaced).
var IPCMsgSizes = []int{64, 256, 1024, 4096, 16384, 65536}

// IPCTransports orders the transports in exhibit series.
var IPCTransports = []string{"pipe", "socket", "shm"}

// IPCPoint runs one IPC point with the exhibits' construction and
// returns the transfer bandwidth in MB/s. A non-nil plan perturbs the
// socket transport (the only one with a network under it); pipes and
// shared memory are immune by construction. Exported for the CLI's I1
// table. The transport must be one of IPCTransports.
func IPCPoint(cfg Config, p *osprofile.Profile, transport string, msg int, plan *fault.Plan) float64 {
	plat := bench.PaperPlatform()
	var d sim.Duration
	switch transport {
	case "pipe":
		d = bench.IPCPipe(plat, p, msg, bench.IPCTotalBytes)
	case "socket":
		inj := fault.New(plan, sim.NewRNG(cfg.Seed).Fork(saltFor("ipc", p.String(), msg)))
		d = bench.IPCSocket(p, msg, bench.IPCTotalBytes, inj.Net)
	case "shm":
		d = bench.IPCShm(plat, p, msg, bench.IPCTotalBytes)
	default:
		panic(fmt.Sprintf("core: unknown IPC transport %q (want pipe, socket, or shm)", transport))
	}
	s := d.Seconds()
	if s <= 0 {
		return 0
	}
	return float64(bench.IPCTotalBytes) / (1 << 20) / s
}

// ipcNoise picks the calibrated noise area per transport: pipes share
// the bw_pipe calibration, sockets the ttcp UDP one, and shared memory
// the memory suite's.
func ipcNoise(p *osprofile.Profile, transport string) float64 {
	switch transport {
	case "pipe":
		return noiseFor(p, noisePipe)
	case "socket":
		return noiseFor(p, noiseUDP)
	}
	return noiseFor(p, noiseMem)
}

func init() {
	register(&Experiment{
		ID:    "I1",
		Title: "IPC Bandwidth vs Message Size (pipe / socket / shm)",
		Kind:  Figure,
		Paper: "IPC extension of §9 (FreeBSD IPC study, PAPERS.md)",
		YUnit: "MB/s", XLabel: "message bytes", LogX: true,
		Direction: stats.HigherIsBetter,
		Notes: []string{
			"Every transport moves 1 MB between two processes; bandwidth = total / elapsed virtual time.",
			"Pipes amortize their two copies and syscall pair as messages grow until the kernel buffer bounds the burst; UDP sockets pay per-packet protocol and checksum costs and fragment at the personality's maximum datagram; shared memory pays only semaphore handshakes plus the cache-line traffic of handing the message's lines to a cold consumer.",
			"Fault plans reach only the socket series (the transport with a network under it) — `-faults` leaves pipe and shm curves byte-identical.",
		},
		Series: func(cfg Config) []Series {
			return perProfile(cfg, len(IPCTransports), func(p *osprofile.Profile, t int) Series {
				tr := IPCTransports[t]
				label := fmt.Sprintf("%s %s", p, tr)
				return curve(cfg, "I1", label, label, floats(IPCMsgSizes), ipcNoise(p, tr), func(i int) float64 {
					return IPCPoint(cfg, p, tr, IPCMsgSizes[i], nil)
				})
			})
		},
	})
}
