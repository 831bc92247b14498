package disk

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func hp() *Disk { return MustNew(HP3725(), sim.NewRNG(1)) }

func TestRandomAccessNear14ms(t *testing.T) {
	// §7.1: "All three systems converge to 14ms for random seeks to blocks
	// on disk." The expected random access on our modelled HP 3725 must
	// land near that.
	d := hp()
	avg := d.AvgRandomAccess(8192)
	if avg < 12*sim.Millisecond || avg > 17*sim.Millisecond {
		t.Fatalf("AvgRandomAccess(8KB) = %v, want ~14ms", avg)
	}
}

func TestMeasuredRandomAccessMatchesEstimate(t *testing.T) {
	d := hp()
	rng := sim.NewRNG(99)
	const n = 2000
	var total sim.Duration
	for i := 0; i < n; i++ {
		blk := rng.Int63n(d.Blocks())
		total += d.Access(blk, 8192, i%2 == 0)
	}
	mean := total / n
	est := d.AvgRandomAccess(8192)
	// Random seeks average somewhat less than the one-third-stroke spec
	// figure; accept a broad band around the estimate.
	if mean < est/2 || mean > est*3/2 {
		t.Fatalf("measured random access %v, estimate %v", mean, est)
	}
}

func TestSequentialStreamsFaster(t *testing.T) {
	d := hp()
	// First access pays seek+rotation; the rest stream.
	var total sim.Duration
	const blocks = 256
	for i := int64(0); i < blocks; i++ {
		total += d.Access(1000+i, 8192, false)
	}
	bw := float64(blocks*8192) / total.Seconds() / 1e6
	geomBW := d.Geometry().TransferMBs
	if bw < geomBW*0.5 || bw > geomBW {
		t.Fatalf("sequential bandwidth %.2f MB/s, want near media rate %.2f", bw, geomBW)
	}
	if hits := d.Stats().SequentialHits; hits != blocks-1 {
		t.Fatalf("SequentialHits = %d, want %d", hits, blocks-1)
	}
}

func TestNearbySeeksCheaperThanFarSeeks(t *testing.T) {
	d := hp()
	d.Access(0, 8192, false)
	near := d.seekTime(0, 2)
	far := d.seekTime(0, d.Geometry().Cylinders-1)
	if near >= far {
		t.Fatalf("seek(2 cyl)=%v not cheaper than full stroke %v", near, far)
	}
	if near < d.Geometry().TrackToTrack {
		t.Fatalf("short seek %v below track-to-track %v", near, d.Geometry().TrackToTrack)
	}
}

func TestSeekTimeZeroSameCylinder(t *testing.T) {
	d := hp()
	if d.seekTime(100, 100) != 0 {
		t.Fatal("same-cylinder seek should be free")
	}
}

func TestAvgSeekCalibration(t *testing.T) {
	d := hp()
	third := d.Geometry().Cylinders / 3
	got := d.seekTime(0, third)
	want := d.Geometry().AvgSeek
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	if diff > want/20 {
		t.Fatalf("one-third-stroke seek = %v, want ~%v", got, want)
	}
}

func TestStatsAccounting(t *testing.T) {
	d := hp()
	d.Access(0, 8192, false)
	d.Access(5000, 16384, true)
	s := d.Stats()
	if s.Reads != 1 || s.Writes != 1 || s.BytesRead != 8192 || s.BytesWritten != 16384 {
		t.Fatalf("stats wrong: %+v", s)
	}
	if s.TotalOperations != 2 {
		t.Fatalf("TotalOperations = %d, want 2", s.TotalOperations)
	}
}

func TestAccessPanicsOutOfRange(t *testing.T) {
	d := hp()
	for _, blk := range []int64{-1, d.Blocks()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Access(%d) did not panic", blk)
				}
			}()
			d.Access(blk, 8192, false)
		}()
	}
}

func TestAccessPanicsOnZeroBytes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Access with 0 bytes did not panic")
		}
	}()
	hp().Access(0, 0, false)
}

func TestNewRejectsBadGeometry(t *testing.T) {
	if _, err := New(Geometry{CapacityMB: 100, TransferMBs: 1, RPM: 5400}, sim.NewRNG(0)); err == nil {
		t.Fatal("New with zero cylinders did not return an error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with zero cylinders did not panic")
		}
	}()
	MustNew(Geometry{CapacityMB: 100, TransferMBs: 1, RPM: 5400}, sim.NewRNG(0))
}

func TestBothPaperDisksConstruct(t *testing.T) {
	for _, g := range []Geometry{QuantumEmpire2100(), HP3725()} {
		d := MustNew(g, sim.NewRNG(0))
		if d.Blocks() <= 0 {
			t.Errorf("%s has no blocks", g.Name)
		}
		if d.Geometry().Name == "" {
			t.Errorf("disk has no name")
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, b := MustNew(HP3725(), sim.NewRNG(5)), MustNew(HP3725(), sim.NewRNG(5))
	rngA, rngB := sim.NewRNG(7), sim.NewRNG(7)
	for i := 0; i < 500; i++ {
		ta := a.Access(rngA.Int63n(a.Blocks()), 8192, i%3 == 0)
		tb := b.Access(rngB.Int63n(b.Blocks()), 8192, i%3 == 0)
		if ta != tb {
			t.Fatalf("access %d diverged: %v vs %v", i, ta, tb)
		}
	}
}

// Property: every access takes positive time bounded by full stroke + one
// rotation + transfer + overhead.
func TestAccessBoundsProperty(t *testing.T) {
	d := hp()
	g := d.Geometry()
	upper := g.AvgSeek*3 + d.rotation() +
		sim.Duration(float64(BlockSize)/(g.TransferMBs*1e6)*float64(sim.Second)) +
		g.ControllerOverhead
	f := func(raw uint32) bool {
		blk := int64(raw) % d.Blocks()
		dt := d.Access(blk, BlockSize, raw%2 == 0)
		return dt > 0 && dt <= upper
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
