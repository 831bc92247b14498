package bench

import (
	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/netstack"
	"repro/internal/osprofile"
	"repro/internal/sim"
)

// The IPC bandwidth family (exhibit I1), after Bell-Thomas' FreeBSD IPC
// study: move IPCTotalBytes between two processes over three transports
// — a pipe (kernel buffer + two copies), a UDP socket (the netstack
// per-packet path), and shared memory (no kernel data path at all, just
// semaphore handshakes and the cache-line bouncing the §6 cache model
// prices) — swept over message size. Pipes win small messages on cheap
// syscalls, sockets pay per-packet protocol costs, and shared memory
// flattens out at the memory system's own bandwidth.

// IPCTotalBytes is the per-run transfer volume (1 MB, as lmbench's
// bw_pipe moves per measurement).
const IPCTotalBytes = 1 << 20

// IPCPipe returns the elapsed virtual time to move total bytes through a
// pipe in msg-byte messages (writer and reader are separate processes on
// a fresh uniprocessor machine).
func IPCPipe(plat Platform, p *osprofile.Profile, msg, total int) sim.Duration {
	return (*Scope)(nil).ipcPipe(p, msg, total).Run()
}

// ipcPipe builds the transfer on a machine of s's.
func (s *Scope) ipcPipe(p *osprofile.Profile, msg, total int) *kernel.Machine {
	if msg <= 0 || total < msg {
		panic("bench: IPC needs a positive message size no larger than the total")
	}
	m := s.machine(p)
	pipe := m.NewPipe()
	count := total / msg
	m.SpawnThread("ipc-writer", []kernel.Op{{Kind: kernel.OpWrite, P: pipe, N: msg}}, count)
	m.SpawnThread("ipc-reader", []kernel.Op{{Kind: kernel.OpRead, P: pipe, N: msg}}, count)
	return m
}

// IPCSocket returns the elapsed virtual time to move total bytes over a
// UDP socket in msg-byte datagrams (clamped to the personality's maximum
// datagram). A non-nil injector perturbs the packet stream, so this is
// the one IPC transport the fault plans reach.
func IPCSocket(p *osprofile.Profile, msg, total int, inj *fault.NetInjector) sim.Duration {
	if msg <= 0 || total < msg {
		panic("bench: IPC needs a positive message size no larger than the total")
	}
	u := netstack.MustUDP(p)
	u.Faults = inj
	if max := u.MaxDatagram(); msg > max {
		msg = max
	}
	return u.Transfer(total, msg)
}

// IPCShm returns the elapsed virtual time to move total bytes through a
// shared-memory segment in msg-byte messages. Each message costs the two
// semaphore system calls that sequence the exchange (writer V, reader P)
// plus the memory traffic of producing the message in a cold segment and
// consuming it on the other CPU — modelled by writing and reading the
// bytes through the Pentium cache hierarchy with a full flush between
// sides, since the consumer's caches hold none of the producer's lines.
func IPCShm(plat Platform, p *osprofile.Profile, msg, total int) sim.Duration {
	if msg <= 0 || total < msg {
		panic("bench: IPC needs a positive message size no larger than the total")
	}
	h := cache.MustNew(cache.PentiumConfig())
	count := total / msg
	// One message's cache traffic is identical for every iteration (the
	// flushes reset the hierarchy), so price one round, byte by byte
	// through WriteBytes and ReadBytes, and multiply.
	h.WriteBytes(0, msg)
	h.Flush()
	h.ReadBytes(0, msg)
	h.Flush()
	perMsg := plat.CPU.Cycles(h.Cycles()) + 2*p.Kernel.Syscall
	return sim.Duration(int64(perMsg) * int64(count))
}
