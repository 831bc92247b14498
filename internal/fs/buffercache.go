package fs

// BufferCache models the dynamically sized unified buffer cache all three
// systems use (§7: each "has a dynamically sized buffer cache that trades
// physical pages for buffer cache pages during intensive disk accesses").
// Its capacity is the amount of the 32 MB machine the cache is allowed to
// grow into — about 20 MB on every system, which is why bonnie's curves
// bend at 20 MB file sizes (Figures 9-11).
//
// The cache tracks block residency, dirtiness and LRU order. It never
// touches the disk itself: eviction and flush decisions return the block
// numbers that must be written, and the file system charges the disk time.
type BufferCache struct {
	capacity   int64 // bytes
	blockSize  int64
	dirtyLimit int64 // bytes of dirty data before the writer is throttled

	entries map[int64]*bufEntry
	head    *bufEntry // most recently used
	tail    *bufEntry // least recently used
	bytes   int64
	dirty   int64

	// dhead/dtail thread a second list through only the dirty entries,
	// mirroring every main-list promotion, so the relative order of dirty
	// entries always matches the main LRU list and flushes walk just the
	// dirty blocks instead of scanning the whole cache.
	dhead *bufEntry
	dtail *bufEntry

	// freeEnt recycles evicted entries; evictScratch and flushScratch are
	// the reused backing arrays for the block lists Insert/SetCapacity and
	// the Flush methods return (each valid until the next call of the same
	// method family).
	freeEnt      *bufEntry
	evictScratch []int64
	flushScratch []int64

	// Hits and Misses count Lookup outcomes.
	Hits, Misses uint64
}

type bufEntry struct {
	blk          int64
	dirty        bool
	prev, next   *bufEntry
	dprev, dnext *bufEntry
}

// NewBufferCache builds a cache of capacityBytes with the given dirty
// threshold. Block size is the file system block size.
func NewBufferCache(capacityBytes, dirtyLimitBytes, blockSize int64) *BufferCache {
	if capacityBytes <= 0 || blockSize <= 0 {
		panic("fs: buffer cache needs positive capacity and block size")
	}
	if dirtyLimitBytes <= 0 || dirtyLimitBytes > capacityBytes {
		dirtyLimitBytes = capacityBytes
	}
	return &BufferCache{
		capacity:   capacityBytes,
		blockSize:  blockSize,
		dirtyLimit: dirtyLimitBytes,
		entries:    make(map[int64]*bufEntry),
	}
}

// Capacity returns the cache capacity in bytes.
func (c *BufferCache) Capacity() int64 { return c.capacity }

// SetCapacity resizes the cache mid-run — the VM system stealing pages
// back under memory pressure (or returning them). Shrinking below the
// resident set evicts from the LRU tail; evicted dirty blocks are
// returned for the file system to charge as write-back, exactly like
// Insert's evictions. The dirty limit is clamped to the new capacity.
func (c *BufferCache) SetCapacity(bytes int64) (writeBack []int64) {
	if bytes <= 0 {
		bytes = c.blockSize
	}
	c.capacity = bytes
	if c.dirtyLimit > c.capacity {
		c.dirtyLimit = c.capacity
	}
	writeBack = c.evictScratch[:0]
	for c.bytes > c.capacity {
		victim := c.tail
		if victim == nil {
			break
		}
		if victim.dirty {
			writeBack = append(writeBack, victim.blk)
		}
		c.drop(victim)
	}
	c.evictScratch = writeBack
	return writeBack
}

func (c *BufferCache) unlink(e *bufEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *BufferCache) pushFront(e *bufEntry) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *BufferCache) dunlink(e *bufEntry) {
	if e.dprev != nil {
		e.dprev.dnext = e.dnext
	} else {
		c.dhead = e.dnext
	}
	if e.dnext != nil {
		e.dnext.dprev = e.dprev
	} else {
		c.dtail = e.dprev
	}
	e.dprev, e.dnext = nil, nil
}

func (c *BufferCache) dpushFront(e *bufEntry) {
	e.dnext = c.dhead
	if c.dhead != nil {
		c.dhead.dprev = e
	}
	c.dhead = e
	if c.dtail == nil {
		c.dtail = e
	}
}

// Lookup reports whether blk is cached, promoting it to most recently
// used and counting the hit or miss.
func (c *BufferCache) Lookup(blk int64) bool {
	e, ok := c.entries[blk]
	if !ok {
		c.Misses++
		return false
	}
	c.Hits++
	c.unlink(e)
	c.pushFront(e)
	if e.dirty {
		c.dunlink(e)
		c.dpushFront(e)
	}
	return true
}

// Insert caches blk (which must not be resident; use Lookup/MarkDirty for
// resident blocks) and returns the dirty blocks evicted to make room, in
// eviction order. Clean evictions are silent.
func (c *BufferCache) Insert(blk int64, dirty bool) (writeBack []int64) {
	if _, ok := c.entries[blk]; ok {
		panic("fs: Insert of resident block")
	}
	e := c.allocEntry()
	e.blk = blk
	e.dirty = dirty
	c.entries[blk] = e
	c.pushFront(e)
	c.bytes += c.blockSize
	if dirty {
		c.dirty += c.blockSize
		c.dpushFront(e)
	}
	writeBack = c.evictScratch[:0]
	for c.bytes > c.capacity {
		victim := c.tail
		if victim == nil || victim == e {
			break
		}
		if victim.dirty {
			writeBack = append(writeBack, victim.blk)
		}
		c.drop(victim)
	}
	c.evictScratch = writeBack
	if len(writeBack) == 0 {
		return nil
	}
	return writeBack
}

// allocEntry reuses a dropped entry or allocates a fresh one.
func (c *BufferCache) allocEntry() *bufEntry {
	if e := c.freeEnt; e != nil {
		c.freeEnt = e.next
		e.next = nil
		return e
	}
	return &bufEntry{}
}

// MarkDirty marks a resident block dirty (a rewrite in place). It reports
// whether the block was resident.
func (c *BufferCache) MarkDirty(blk int64) bool {
	e, ok := c.entries[blk]
	if !ok {
		return false
	}
	if !e.dirty {
		e.dirty = true
		c.dirty += c.blockSize
	} else {
		c.dunlink(e)
	}
	c.unlink(e)
	c.pushFront(e)
	c.dpushFront(e)
	return true
}

// OverDirtyLimit reports whether dirty data exceeds the throttle point.
func (c *BufferCache) OverDirtyLimit() bool { return c.dirty > c.dirtyLimit }

// FlushOldestDirty cleans the least recently used dirty blocks until dirty
// data is back under the limit, returning the block numbers to write.
// The blocks stay resident (clean). The walk covers only dirty entries —
// the dirty list mirrors the main list's relative order — so the cost is
// O(blocks flushed), not O(blocks cached).
func (c *BufferCache) FlushOldestDirty() []int64 {
	out := c.flushScratch[:0]
	for c.dirty > c.dirtyLimit && c.dtail != nil {
		e := c.dtail
		e.dirty = false
		c.dirty -= c.blockSize
		c.dunlink(e)
		out = append(out, e.blk)
	}
	c.flushScratch = out
	if len(out) == 0 {
		return nil
	}
	return out
}

// FlushAll cleans every dirty block, returning the block numbers to write
// in LRU-to-MRU order (sync(2) semantics).
func (c *BufferCache) FlushAll() []int64 {
	out := c.flushScratch[:0]
	for c.dtail != nil {
		e := c.dtail
		e.dirty = false
		c.dirty -= c.blockSize
		c.dunlink(e)
		out = append(out, e.blk)
	}
	c.flushScratch = out
	if len(out) == 0 {
		return nil
	}
	return out
}

// CleanBlock marks blk clean if it is resident and dirty, reporting
// whether it was dirty (the caller then charges the disk write). Used by
// the NFS server's per-RPC commit.
func (c *BufferCache) CleanBlock(blk int64) bool {
	e, ok := c.entries[blk]
	if !ok || !e.dirty {
		return false
	}
	e.dirty = false
	c.dirty -= c.blockSize
	c.dunlink(e)
	return true
}

// Invalidate drops blk if resident, discarding dirty data (unlink of a
// deleted file's blocks).
func (c *BufferCache) Invalidate(blk int64) {
	if e, ok := c.entries[blk]; ok {
		c.drop(e)
	}
}

func (c *BufferCache) drop(e *bufEntry) {
	c.unlink(e)
	delete(c.entries, e.blk)
	c.bytes -= c.blockSize
	if e.dirty {
		c.dirty -= c.blockSize
		c.dunlink(e)
	}
	e.dirty = false
	e.blk = 0
	e.next = c.freeEnt
	c.freeEnt = e
}
