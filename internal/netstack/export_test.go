package netstack

import "repro/internal/sim"

// PacketTime returns the CPU time one datagram of the given payload size
// consumes end to end.
func (u *UDP) PacketTime(size int) sim.Duration {
	return u.PacketBreakdown(size).Total()
}

// Transfer returns the elapsed time of moving totalBytes through the
// connection, untraced.
func (t *TCP) Transfer(totalBytes int) sim.Duration {
	elapsed, _ := t.TransferObserved(totalBytes, nil)
	return elapsed
}
