package vm

import (
	"testing"
	"testing/quick"
)

func TestPaperMachineBudgetNear20MB(t *testing.T) {
	// §7: all three systems cache files up to ~20 MB of the 32 MB
	// machine. The single-user-mode footprint must leave about that much.
	for kernelMB := 2; kernelMB <= 5; kernelMB++ {
		p := PaperMachine(kernelMB)
		mb := float64(p.CacheBudget()) / (1 << 20)
		if mb < 18 || mb > 23 {
			t.Errorf("kernel %d MB: cache budget %.1f MB, want ~20", kernelMB, mb)
		}
	}
}

func TestClaimShrinksBudget(t *testing.T) {
	p := NewPool(32 << 20)
	before := p.CacheBudget()
	p.Claim("hog", 8<<20)
	after := p.CacheBudget()
	if before-after != 8<<20 {
		t.Fatalf("claim shrank budget by %d, want 8 MB", before-after)
	}
}

func TestClaimRoundsToPages(t *testing.T) {
	p := NewPool(1 << 20)
	p.Claim("odd", 1) // one byte claims one page
	if len(p.consumers) != 1 || p.consumers["odd"] != 1 {
		t.Fatalf("consumers = %v, want one page", p.consumers)
	}
}

func TestOverclaimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("overclaim did not panic")
		}
	}()
	p := NewPool(1 << 20)
	p.Claim("hog", 2<<20)
}

func TestNegativeClaimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative claim did not panic")
		}
	}()
	NewPool(1<<20).Claim("x", -1)
}

func TestTinyPoolPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("sub-page pool did not panic")
		}
	}()
	NewPool(100)
}

// Property: budget + claims + reserve always equals the pool total.
func TestAccountingProperty(t *testing.T) {
	f := func(claims []uint16) bool {
		p := NewPool(64 << 20)
		for i, c := range claims {
			bytes := int64(c) * 1024
			pages := (bytes + PageSize - 1) / PageSize
			if pages > p.availablePages() {
				continue
			}
			p.Claim(string(rune('a'+i%26))+"x", bytes)
		}
		var claimed int64
		for _, pages := range p.consumers {
			claimed += pages * PageSize
		}
		return p.CacheBudget()+claimed+p.reserve*PageSize == p.totalPages*PageSize
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
