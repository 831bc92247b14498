package netstack

import (
	"testing"
	"testing/quick"

	"repro/internal/osprofile"
	"repro/internal/sim"
)

func TestUDPPeakOrdering(t *testing.T) {
	// Figure 13 at large packets: FreeBSD ~50 > Solaris ~32 > Linux ~16.
	bw := func(p *osprofile.Profile) float64 {
		u := MustUDP(p)
		return BandwidthMbps(4<<20, u.Transfer(4<<20, 8192))
	}
	l, f, s := bw(osprofile.Linux128()), bw(osprofile.FreeBSD205()), bw(osprofile.Solaris24())
	if !(f > s && s > l) {
		t.Fatalf("UDP ordering wrong: linux=%.1f freebsd=%.1f solaris=%.1f", l, f, s)
	}
	if f < 42 || f > 55 {
		t.Errorf("FreeBSD UDP peak %.1f, want ~48 (\"almost 50\")", f)
	}
	if s < 28 || s > 36 {
		t.Errorf("Solaris UDP peak %.1f, want ~32", s)
	}
	if l < 13 || l > 19 {
		t.Errorf("Linux UDP peak %.1f, want ~16", l)
	}
}

func TestUDPBandwidthGrowsWithPacketSize(t *testing.T) {
	// Figure 13's shape: per-packet costs dominate small datagrams.
	u := MustUDP(osprofile.FreeBSD205())
	var prev float64
	for _, size := range []int{128, 512, 1024, 4096, 8192} {
		bw := BandwidthMbps(4<<20, u.Transfer(4<<20, size))
		if bw <= prev {
			t.Fatalf("bandwidth did not grow with packet size at %d: %.2f <= %.2f", size, bw, prev)
		}
		prev = bw
	}
}

func TestUDPHalfOfPipeBandwidth(t *testing.T) {
	// §9.2: FreeBSD's and Solaris' UDP runs at ~50% of their pipe
	// bandwidth; Linux's at ~14% of its own.
	pipeBW := map[string]float64{"Linux": 119.36, "FreeBSD": 98.03, "Solaris": 65.38}
	for _, p := range osprofile.Paper() {
		u := MustUDP(p)
		bw := BandwidthMbps(4<<20, u.Transfer(4<<20, 8192))
		frac := bw / pipeBW[p.Name]
		switch p.Name {
		case "FreeBSD", "Solaris":
			if frac < 0.40 || frac > 0.60 {
				t.Errorf("%s UDP/pipe = %.2f, want ~0.5", p.Name, frac)
			}
		case "Linux":
			if frac < 0.10 || frac > 0.20 {
				t.Errorf("Linux UDP/pipe = %.2f, want ~0.14", frac)
			}
		}
	}
}

func TestTCPTable5(t *testing.T) {
	// Table 5: FreeBSD 65.95, Solaris 60.11, Linux 25.03 Mb/s.
	want := map[string][2]float64{
		"Linux":   {22, 28},
		"FreeBSD": {60, 72},
		"Solaris": {54, 66},
	}
	for _, p := range osprofile.Paper() {
		c := MustTCP(p)
		bw := BandwidthMbps(3<<20, c.Transfer(3<<20))
		if lo, hi := want[p.Name][0], want[p.Name][1]; bw < lo || bw > hi {
			t.Errorf("%s TCP = %.2f Mb/s, want [%v, %v]", p.Name, bw, lo, hi)
		}
	}
}

func TestLinuxWindowAblation(t *testing.T) {
	// A5: widening Linux's one-packet window recovers most of the gap to
	// FreeBSD.
	var prev float64
	for _, w := range []int{1, 2, 4, 8, 16, 32} {
		c := MustTCP(osprofile.Linux128())
		c.WindowOverride = w
		bw := BandwidthMbps(3<<20, c.Transfer(3<<20))
		if bw < prev {
			t.Fatalf("bandwidth fell when window grew to %d: %.2f < %.2f", w, bw, prev)
		}
		prev = bw
	}
	if prev < 45 {
		t.Errorf("Linux with a 32-packet window reaches only %.1f Mb/s; the window was the bottleneck (§9.3)", prev)
	}
}

func TestTCPWindowAccessors(t *testing.T) {
	c := MustTCP(osprofile.Solaris24())
	if c.Window() != osprofile.Solaris24().Net.TCPWindowPackets {
		t.Fatal("Window() must reflect the profile")
	}
	c.WindowOverride = 3
	if c.Window() != 3 {
		t.Fatal("WindowOverride not honoured")
	}
}

func TestTransferScalesLinearly(t *testing.T) {
	c := MustTCP(osprofile.FreeBSD205())
	t1 := c.Transfer(1 << 20)
	t4 := c.Transfer(4 << 20)
	ratio := float64(t4) / float64(t1)
	if ratio < 3.8 || ratio > 4.2 {
		t.Fatalf("4x transfer took %.2fx the time; want ~4x", ratio)
	}
}

func TestPanicsOnBadSizes(t *testing.T) {
	u := MustUDP(osprofile.Linux128())
	c := MustTCP(osprofile.Linux128())
	l := Ethernet10()
	cases := []func(){
		func() { u.PacketTime(0) },
		func() { u.PacketTime(70000) },
		func() { u.Transfer(0, 1024) },
		func() { c.Transfer(0) },
		func() { l.TransmitTime(0) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestEthernetLink(t *testing.T) {
	l := Ethernet10()
	// 8 KB over 10 Mb/s is ~6.55 ms of wire time plus 6 frames of
	// overhead.
	d := l.TransmitTime(8192)
	if d < 6*sim.Millisecond || d > 9*sim.Millisecond {
		t.Fatalf("8 KB transmit = %v, want ~7ms on 10 Mb/s Ethernet", d)
	}
	// The link can never exceed its wire rate.
	bw := BandwidthMbps(1<<20, l.TransmitTime(1<<20))
	if bw >= 10 {
		t.Fatalf("Ethernet delivered %.2f Mb/s, above the 10 Mb/s wire", bw)
	}
}

func TestBandwidthMbpsZeroDuration(t *testing.T) {
	if BandwidthMbps(100, 0) != 0 {
		t.Fatal("zero duration must give zero bandwidth, not infinity")
	}
}

// Property: TCP transfer time is monotone in transfer size and positive.
func TestTCPMonotoneProperty(t *testing.T) {
	c := MustTCP(osprofile.Solaris24())
	f := func(a, b uint16) bool {
		x, y := int(a)+1, int(a)+1+int(b)
		return c.Transfer(x) > 0 && c.Transfer(y) >= c.Transfer(x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: UDP transfer equals the sum of its packets.
func TestUDPCompositionProperty(t *testing.T) {
	u := MustUDP(osprofile.FreeBSD205())
	f := func(nPackets uint8, size uint16) bool {
		n := int(nPackets%20) + 1
		s := int(size%8192) + 1
		total := u.Transfer(n*s, s)
		var sum sim.Duration
		for i := 0; i < n; i++ {
			sum += u.PacketTime(s)
		}
		return total == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkTCPBurst is the netstack layer's unit of bw_tcp: one
// unfaulted send burst of a full window of MSS segments, then the
// receiver's drain and cumulative ack, per paper personality.
func BenchmarkTCPBurst(b *testing.B) {
	for _, p := range osprofile.Paper() {
		b.Run(p.Name, func(b *testing.B) {
			c := MustTCP(p)
			bytes := c.Window() * p.Net.MSS
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if d, _ := c.TransferObserved(bytes, nil); d <= 0 {
					b.Fatalf("burst of %d bytes took %v", bytes, d)
				}
			}
		})
	}
}
