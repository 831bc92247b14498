package fs

import (
	"testing"
	"testing/quick"
)

func newCache(capBlocks, dirtyBlocks int) *BufferCache {
	return NewBufferCache(int64(capBlocks)*BlockSize, int64(dirtyBlocks)*BlockSize, BlockSize)
}

func TestCacheInsertAndLookup(t *testing.T) {
	c := newCache(4, 4)
	if c.Lookup(1) {
		t.Fatal("empty cache hit")
	}
	c.Insert(1, false)
	if !c.Lookup(1) {
		t.Fatal("inserted block missed")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("hit/miss counters: %d/%d, want 1/1", c.Hits, c.Misses)
	}
	if c.Bytes() != BlockSize {
		t.Fatalf("Bytes = %d", c.Bytes())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newCache(3, 3)
	c.Insert(1, false)
	c.Insert(2, false)
	c.Insert(3, false)
	c.Lookup(1) // 1 is now MRU; 2 is LRU
	c.Insert(4, false)
	if c.Resident(2) {
		t.Fatal("LRU block 2 should have been evicted")
	}
	for _, blk := range []int64{1, 3, 4} {
		if !c.Resident(blk) {
			t.Fatalf("block %d should be resident", blk)
		}
	}
}

func TestCacheDirtyEvictionReported(t *testing.T) {
	c := newCache(2, 2)
	c.Insert(1, true)
	c.Insert(2, false)
	wb := c.Insert(3, false) // evicts 1 (dirty)
	if len(wb) != 1 || wb[0] != 1 {
		t.Fatalf("writeBack = %v, want [1]", wb)
	}
	// Clean eviction is silent.
	wb = c.Insert(4, false) // evicts 2 (clean)
	if len(wb) != 0 {
		t.Fatalf("clean eviction reported write-back: %v", wb)
	}
}

func TestCacheDirtyAccounting(t *testing.T) {
	c := newCache(8, 2)
	c.Insert(1, true)
	c.Insert(2, true)
	if c.DirtyBytes() != 2*BlockSize {
		t.Fatalf("DirtyBytes = %d", c.DirtyBytes())
	}
	if c.OverDirtyLimit() {
		t.Fatal("at the limit is not over the limit")
	}
	c.Insert(3, true)
	if !c.OverDirtyLimit() {
		t.Fatal("should be over the dirty limit")
	}
	flushed := c.FlushOldestDirty()
	if len(flushed) == 0 {
		t.Fatal("FlushOldestDirty flushed nothing")
	}
	if c.OverDirtyLimit() {
		t.Fatal("still over the limit after flush")
	}
	// Flushed blocks stay resident, clean.
	for _, blk := range flushed {
		if !c.Resident(blk) {
			t.Fatalf("flushed block %d was dropped", blk)
		}
	}
}

func TestCacheMarkDirty(t *testing.T) {
	c := newCache(4, 4)
	if c.MarkDirty(9) {
		t.Fatal("MarkDirty of absent block reported success")
	}
	c.Insert(1, false)
	if !c.MarkDirty(1) {
		t.Fatal("MarkDirty of resident block failed")
	}
	if c.DirtyBytes() != BlockSize {
		t.Fatalf("DirtyBytes = %d", c.DirtyBytes())
	}
	// Idempotent.
	c.MarkDirty(1)
	if c.DirtyBytes() != BlockSize {
		t.Fatal("double MarkDirty double-counted")
	}
}

func TestCacheFlushAllOrder(t *testing.T) {
	c := newCache(8, 8)
	c.Insert(1, true)
	c.Insert(2, false)
	c.Insert(3, true)
	out := c.FlushAll()
	// LRU-to-MRU: 1 before 3.
	if len(out) != 2 || out[0] != 1 || out[1] != 3 {
		t.Fatalf("FlushAll = %v, want [1 3]", out)
	}
	if c.DirtyBytes() != 0 {
		t.Fatal("FlushAll left dirty bytes")
	}
}

func TestCacheCleanBlock(t *testing.T) {
	c := newCache(4, 4)
	c.Insert(1, true)
	if !c.CleanBlock(1) {
		t.Fatal("CleanBlock of dirty block returned false")
	}
	if c.CleanBlock(1) {
		t.Fatal("CleanBlock of clean block returned true")
	}
	if c.CleanBlock(99) {
		t.Fatal("CleanBlock of absent block returned true")
	}
	if c.DirtyBytes() != 0 {
		t.Fatal("CleanBlock did not update accounting")
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := newCache(4, 4)
	c.Insert(1, true)
	c.Invalidate(1)
	if c.Resident(1) || c.Bytes() != 0 || c.DirtyBytes() != 0 {
		t.Fatal("Invalidate left state behind")
	}
	c.Invalidate(2) // absent: no-op
}

func TestCacheInsertResidentPanics(t *testing.T) {
	c := newCache(4, 4)
	c.Insert(1, false)
	defer func() {
		if recover() == nil {
			t.Fatal("double Insert did not panic")
		}
	}()
	c.Insert(1, false)
}

func TestCacheBadConstruction(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity did not panic")
		}
	}()
	NewBufferCache(0, 0, BlockSize)
}

func TestCacheDirtyLimitDefaults(t *testing.T) {
	// A zero or over-large dirty limit falls back to the capacity.
	c := NewBufferCache(4*BlockSize, 0, BlockSize)
	c.Insert(1, true)
	c.Insert(2, true)
	c.Insert(3, true)
	c.Insert(4, true)
	if c.OverDirtyLimit() {
		t.Fatal("dirty limit should default to capacity")
	}
}

// Property: bytes and dirty accounting stay consistent with residency
// under arbitrary operation sequences, and capacity is never exceeded.
func TestCacheInvariantsProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		c := newCache(8, 4)
		resident := map[int64]bool{}
		for _, op := range ops {
			blk := int64(op % 32)
			switch op % 5 {
			case 0:
				if !resident[blk] {
					c.Insert(blk, op%2 == 0)
					resident[blk] = true
					// Evictions may have dropped others; resync below.
				}
			case 1:
				c.Lookup(blk)
			case 2:
				c.MarkDirty(blk)
			case 3:
				c.Invalidate(blk)
				delete(resident, blk)
			case 4:
				c.FlushOldestDirty()
			}
			// Resync the model with evictions.
			for b := range resident {
				if !c.Resident(b) {
					delete(resident, b)
				}
			}
			if c.Bytes() != int64(len(resident))*BlockSize {
				return false
			}
			if c.Bytes() > c.Capacity() {
				return false
			}
			if c.DirtyBytes() < 0 || c.DirtyBytes() > c.Bytes() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
