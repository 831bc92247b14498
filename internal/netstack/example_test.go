package netstack_test

import (
	"fmt"

	"repro/internal/netstack"
	"repro/internal/osprofile"
)

// Example reproduces Table 5's headline: Linux 1.2.8's one-packet TCP
// window throttles it to a fraction of FreeBSD's bandwidth, and widening
// the window (ablation A5) recovers the loss.
func Example() {
	const transfer = 3 << 20 // lmbench bw_tcp: 3 MB
	mbps := func(c *netstack.TCP) float64 {
		elapsed, _ := c.TransferObserved(transfer, nil)
		return netstack.BandwidthMbps(transfer, elapsed)
	}

	fb := netstack.MustTCP(osprofile.FreeBSD205())
	fmt.Printf("FreeBSD, %2d-packet window: %5.1f Mb/s\n", fb.Window(), mbps(fb))

	lx := netstack.MustTCP(osprofile.Linux128())
	fmt.Printf("Linux,   %2d-packet window: %5.1f Mb/s\n", lx.Window(), mbps(lx))

	lx.WindowOverride = 16
	fmt.Printf("Linux,   %2d-packet window: %5.1f Mb/s\n", lx.Window(), mbps(lx))

	// Output:
	// FreeBSD, 11-packet window:  66.1 Mb/s
	// Linux,    1-packet window:  24.8 Mb/s
	// Linux,   16-packet window:  44.5 Mb/s
}
