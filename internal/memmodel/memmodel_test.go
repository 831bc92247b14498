package memmodel

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/cpu"
)

func model() *Model { return NewModel(cpu.PentiumP54C100(), cache.PentiumConfig()) }

// within reports whether v lies in [lo, hi].
func within(v, lo, hi float64) bool { return v >= lo && v <= hi }

func TestReadPlateaus(t *testing.T) {
	// Paper Figure 2: ~300 MB/s from L1, ~110 MB/s from L2, ~75 MB/s from
	// memory, with knees at 8 KB and 256 KB.
	cases := []struct {
		size   int
		lo, hi float64
	}{
		{2 << 10, 280, 330},
		{8 << 10, 280, 330},
		{32 << 10, 100, 120},
		{128 << 10, 100, 120},
		{1 << 20, 70, 80},
		{8 << 20, 70, 80},
	}
	for _, c := range cases {
		bw := model().Bandwidth(CustomRead, c.size)
		if !within(bw, c.lo, c.hi) {
			t.Errorf("read %d KB: %.1f MB/s, want [%v, %v]", c.size/1024, bw, c.lo, c.hi)
		}
	}
}

func TestMemsetIsFlatAndSlow(t *testing.T) {
	// Paper Figure 3: memset "did not reach even 50 megabytes/second" at
	// any size, because writes never allocate.
	var prev float64
	for _, size := range []int{1 << 10, 8 << 10, 64 << 10, 1 << 20, 8 << 20} {
		bw := model().Bandwidth(Memset, size)
		if bw >= 50 {
			t.Errorf("memset %d KB: %.1f MB/s, want < 50", size/1024, bw)
		}
		if prev != 0 && !within(bw, prev*0.9, prev*1.1) {
			t.Errorf("memset curve not flat: %.1f then %.1f", prev, bw)
		}
		prev = bw
	}
}

func TestNaiveWriteMatchesMemset(t *testing.T) {
	// Paper §6.2: the naive custom write results "are very similar to the
	// system memset() results".
	for _, size := range []int{4 << 10, 512 << 10} {
		ms := model().Bandwidth(Memset, size)
		nw := model().Bandwidth(NaiveWrite, size)
		if !within(nw, ms*0.85, ms*1.15) {
			t.Errorf("size %d: naive write %.1f vs memset %.1f, want within 15%%", size, nw, ms)
		}
	}
}

func TestPrefetchWritePeak(t *testing.T) {
	// Paper §6.2: "The peak write bandwidth improved to 310 MB/s."
	bw := model().Bandwidth(PrefetchWrite, 4<<10)
	if !within(bw, 280, 340) {
		t.Errorf("prefetch write peak = %.1f MB/s, want ~310", bw)
	}
	// And it must beat the naive write by roughly the paper's huge factor.
	naive := model().Bandwidth(NaiveWrite, 4<<10)
	if bw < 5*naive {
		t.Errorf("prefetch write %.1f not dramatically faster than naive %.1f", bw, naive)
	}
}

func TestMemcpyAbout40(t *testing.T) {
	// Paper §6: "the same routines copy data at about 40 megabytes/second"
	// without prefetching.
	bw := model().Bandwidth(LibcMemcpy, 4<<10)
	if !within(bw, 33, 48) {
		t.Errorf("memcpy = %.1f MB/s, want ~40", bw)
	}
	nc := model().Bandwidth(NaiveCopy, 4<<10)
	if !within(nc, bw*0.9, bw*1.1) {
		t.Errorf("naive copy %.1f should resemble memcpy %.1f", nc, bw)
	}
}

func TestPrefetchCopyPeak(t *testing.T) {
	// Paper §6.3: "a peak of over 160 megabytes/second in copy bandwidth".
	bw := model().Bandwidth(PrefetchCopy, 4<<10)
	if !within(bw, 150, 185) {
		t.Errorf("prefetch copy peak = %.1f MB/s, want ~160-170", bw)
	}
}

func TestPrefetchCopyApproachesReadBandwidth(t *testing.T) {
	// Paper §6.3: 160 MB/s copy = 320 MB/s total, "which approaches the
	// peak set by the custom read routine" (~300).
	copyBW := model().Bandwidth(PrefetchCopy, 4<<10)
	readBW := model().Bandwidth(CustomRead, 4<<10)
	total := 2 * copyBW
	if !within(total, readBW*0.9, readBW*1.25) {
		t.Errorf("prefetch copy total %.1f should approach read peak %.1f", total, readBW)
	}
}

func TestTailLoopDip(t *testing.T) {
	// Paper §6.4: when 15 bytes fall into the byte-at-a-time tail loop,
	// bandwidth dips for small buffers.
	aligned := model().Bandwidth(CustomRead, 512)
	ragged := model().Bandwidth(CustomRead, 512+15)
	if ragged >= aligned*0.9 {
		t.Errorf("15-byte tail: %.1f vs aligned %.1f; want a visible dip", ragged, aligned)
	}
	// The dip fades for large buffers, where the tail is amortised.
	alignedBig := model().Bandwidth(CustomRead, 1<<20)
	raggedBig := model().Bandwidth(CustomRead, 1<<20+15)
	if raggedBig < alignedBig*0.98 {
		t.Errorf("tail dip did not amortise at 1 MB: %.1f vs %.1f", raggedBig, alignedBig)
	}
}

func TestWriteAllocateAblation(t *testing.T) {
	// DESIGN.md A1: with a write-allocate cache, memset jumps to
	// read-class bandwidth for cached sizes.
	cfg := cache.PentiumConfig()
	cfg.WriteAllocate = true
	m := NewModel(cpu.PentiumP54C100(), cfg)
	bw := m.Bandwidth(Memset, 4<<10)
	if bw < 200 {
		t.Errorf("write-allocate memset = %.1f MB/s, want read-class (>200)", bw)
	}
}

func TestCopyBandwidthCountsBytesOnce(t *testing.T) {
	// A copy of N bytes reports N bytes moved (paper convention), so a
	// copy can never beat a read of the same working set by more than 2x.
	copyBW := model().Bandwidth(PrefetchCopy, 2<<10)
	readBW := model().Bandwidth(CustomRead, 2<<10)
	if copyBW > readBW {
		t.Errorf("copy %.1f MB/s exceeds read %.1f MB/s; accounting wrong", copyBW, readBW)
	}
}

func TestBandwidthDeterminism(t *testing.T) {
	a := model().Bandwidth(PrefetchCopy, 48<<10)
	b := model().Bandwidth(PrefetchCopy, 48<<10)
	if a != b {
		t.Fatalf("bandwidth not deterministic: %v vs %v", a, b)
	}
}

func TestBandwidthPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Bandwidth(0) did not panic")
		}
	}()
	model().Bandwidth(CustomRead, 0)
}

func TestRoutineStrings(t *testing.T) {
	for r := CustomRead; r <= PrefetchCopy; r++ {
		if r.String() == "" {
			t.Errorf("routine %d has empty name", int(r))
		}
	}
	if Routine(99).String() != "Routine(99)" {
		t.Errorf("unknown routine String() = %q", Routine(99).String())
	}
}

func TestPrefetchDistanceAblation(t *testing.T) {
	// DESIGN.md A2: beyond the caches, more lookahead hides more fill
	// latency, up to the point where the fill is fully hidden.
	var prev float64
	for _, d := range []int{0, 1, 2, 4} {
		m := model()
		m.PrefetchDistance = d
		bw := m.Bandwidth(PrefetchWrite, 2<<20)
		if d > 0 && bw < prev {
			t.Errorf("distance %d bandwidth %.1f dropped below distance-smaller %.1f", d, bw, prev)
		}
		prev = bw
	}
}
