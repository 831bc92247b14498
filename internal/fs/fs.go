// Package fs models the local file systems of the three operating systems:
// ext2fs on Linux and the two FFS derivatives on FreeBSD and Solaris.
//
// The model keeps a real directory tree with inodes and per-file block
// lists on a simulated disk, runs all data through a dynamically sized
// buffer cache, and charges virtual time for every operation: per-KB copy
// costs between user space and the cache, per-block allocation work, disk
// time for cache misses and write-back, and — the paper's headline §7.2
// mechanism — synchronous metadata disk writes on create, unlink and mkdir
// for the FFS personalities, versus asynchronous (cache-only) metadata
// updates for ext2fs. The order-of-magnitude crtdel gap, the bonnie cache
// knee at 20 MB, and the 14 ms random-seek convergence all fall out of
// these mechanisms.
package fs

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/osprofile"
	"repro/internal/sim"
)

// BlockSize is the file system block size in bytes.
const BlockSize = disk.BlockSize

// Stats counts file system activity.
type Stats struct {
	Creates, Unlinks, Mkdirs uint64
	Opens, Closes, Stats     uint64
	ReadCalls, WriteCalls    uint64
	BytesRead, BytesWritten  uint64
	SyncMetaWrites           uint64
	DataDiskReads            uint64
	DataDiskWrites           uint64
}

type inode struct {
	ino    int64
	dir    bool
	size   int64
	blocks []int64
	kids   map[string]*inode // directories only
}

// File is an open file descriptor with a seek offset.
type File struct {
	fs     *FileSystem
	node   *inode
	offset int64
	closed bool
}

// FileSystem is one mounted file system instance on one disk partition.
type FileSystem struct {
	clock *sim.Clock
	d     *disk.Disk
	os    *osprofile.Profile
	cache *BufferCache

	root    *inode
	nextIno int64

	// cacheBudgetOverride, when positive, replaces the personality's
	// BufferCacheMB (e.g. a budget computed from a vm.Pool under memory
	// pressure). Set with SetCacheBudget.
	cacheBudgetOverride int64

	// Disk layout: a metadata area at the front of the partition, then
	// data blocks handed out by a bump allocator.
	metaBase     int64
	dataBase     int64
	nextData     int64
	metaAlt      int // alternates metadata write targets across the spread
	attrCache    map[string]bool
	stats        Stats
	partitionLen int64

	// phases attributes every charged duration to a Phase (see obs.go);
	// the entries always sum to the total time charged since Remake.
	phases [NumPhases]sim.Duration

	// rec, when non-nil, receives operation and disk-level spans.
	rec       *obs.Recorder
	fsTrack   obs.TrackID
	diskTrack obs.TrackID

	// cacheInj, when non-nil, applies page-steal pressure per operation
	// (see SetFaults).
	cacheInj *fault.CacheInjector
}

// New mounts a fresh file system for the given OS personality on the disk.
// The clock is shared with whatever machine drives the workload; all
// operation costs are charged to it. A personality whose file-system
// parameters cannot mount (zero cache budget) is a returned error, never
// a panic.
func New(clock *sim.Clock, d *disk.Disk, os *osprofile.Profile) (*FileSystem, error) {
	if int64(os.FS.BufferCacheMB)<<20 <= 0 {
		return nil, fmt.Errorf("fs: %s: buffer cache budget must be positive (have %d MB)",
			os, os.FS.BufferCacheMB)
	}
	f := &FileSystem{clock: clock, d: d, os: os}
	f.partitionLen = d.Blocks()
	f.Remake()
	return f, nil
}

// MustNew is New for the built-in personalities, whose parameters are
// validated at load time.
func MustNew(clock *sim.Clock, d *disk.Disk, os *osprofile.Profile) *FileSystem {
	f, err := New(clock, d, os)
	if err != nil {
		panic(err)
	}
	return f
}

// SetFaults attaches a run's fault injectors: the cache injector steals
// buffer-cache pages between operations, and the disk injector is
// forwarded to the underlying disk. Zero-value injectors detach.
func (f *FileSystem) SetFaults(inj fault.Injectors) {
	f.cacheInj = inj.Cache
	f.d.SetFaults(inj.Disk)
}

// maybeSteal draws one page-steal decision and, when it fires, shrinks
// the cache and charges the write-back of the dirty blocks it evicts —
// through flushBlock, so the phase ledger stays exact under pressure.
func (f *FileSystem) maybeSteal() {
	if f.cacheInj == nil {
		return
	}
	if target, ok := f.cacheInj.StealTarget(f.cache.Capacity()); ok {
		for _, blk := range f.cache.SetCapacity(target) {
			f.flushBlock(blk)
		}
	}
}

// Remake re-creates the file system, as the paper did between benchmarks
// (§2.2: "We create a fresh 200-megabyte file system on this second disk
// between different benchmarks").
func (f *FileSystem) Remake() {
	fsc := &f.os.FS
	cacheBytes := int64(fsc.BufferCacheMB) << 20
	if f.cacheBudgetOverride > 0 {
		cacheBytes = f.cacheBudgetOverride
	}
	dirtyBytes := int64(fsc.DirtyLimitMB) << 20
	if dirtyBytes > cacheBytes {
		dirtyBytes = cacheBytes
	}
	f.cache = NewBufferCache(cacheBytes, dirtyBytes, BlockSize)
	f.root = &inode{ino: 2, dir: true, kids: make(map[string]*inode)}
	f.nextIno = 3
	f.metaBase = 64
	f.dataBase = 4096 // leave room for the metadata area
	f.nextData = f.dataBase
	f.metaAlt = 0
	f.attrCache = make(map[string]bool)
	f.stats = Stats{}
	f.phases = [NumPhases]sim.Duration{}
}

// SetCacheBudget overrides the buffer cache capacity — for example with
// a budget computed from a vm.Pool when other processes claim memory —
// and remakes the file system with it.
func (f *FileSystem) SetCacheBudget(bytes int64) {
	if bytes <= 0 {
		panic("fs: cache budget must be positive")
	}
	f.cacheBudgetOverride = bytes
	f.Remake()
}

// Stats returns a copy of the activity counters.
func (f *FileSystem) Stats() Stats { return f.stats }

// Disk exposes the underlying disk (for metric folds and inspection).
func (f *FileSystem) Disk() *disk.Disk { return f.d }

// charge advances the shared clock, attributing the time to a phase.
func (f *FileSystem) charge(ph Phase, d sim.Duration) {
	f.clock.Advance(d)
	f.phases[ph] += d
}

// syscall charges the base system-call plus fixed per-op cost.
func (f *FileSystem) syscall() {
	f.charge(PhaseVFS, f.os.Kernel.Syscall+f.os.FS.OpFixed)
}

// perKB charges a per-KB copy cost for n bytes.
func (f *FileSystem) perKB(rate sim.Duration, n int64) {
	f.charge(PhaseCopy, sim.Duration(int64(rate)*n/1024))
}

// lookup walks the path. Paths are slash-separated and absolute within
// this file system ("/a/b/c" or "a/b/c").
func (f *FileSystem) lookup(path string) (*inode, error) {
	parts := splitPath(path)
	n := f.root
	for _, p := range parts {
		if !n.dir {
			return nil, fmt.Errorf("fs: %q: not a directory", p)
		}
		next, ok := n.kids[p]
		if !ok {
			return nil, fmt.Errorf("fs: %q: no such file or directory", path)
		}
		n = next
	}
	return n, nil
}

// lookupParent returns the parent directory and final name component.
func (f *FileSystem) lookupParent(path string) (*inode, string, error) {
	parts := splitPath(path)
	if len(parts) == 0 {
		return nil, "", fmt.Errorf("fs: empty path")
	}
	dirParts, name := parts[:len(parts)-1], parts[len(parts)-1]
	n := f.root
	for _, p := range dirParts {
		next, ok := n.kids[p]
		if !ok || !next.dir {
			return nil, "", fmt.Errorf("fs: %q: no such directory", path)
		}
		n = next
	}
	return n, name, nil
}

func splitPath(path string) []string {
	var out []string
	for _, p := range strings.Split(path, "/") {
		if p != "" && p != "." {
			out = append(out, p)
		}
	}
	return out
}

// syncMetaWrites performs n synchronous metadata disk writes.
//
// FFS clusters a directory's inodes and entries in its cylinder group, so
// creations in one directory (MAB's pattern) rewrite nearby blocks: the
// head barely moves and each write costs about one rotational latency.
// Deletions, by contrast, must also update structures away from the group
// (free maps, the far half of the personality's metadata layout), so they
// alternate targets across the seek spread — which is what makes a
// create/delete cycle (crtdel's pattern) so much more expensive than a
// create-only burst.
func (f *FileSystem) syncMetaWrites(n int, groupBase int64, far bool) {
	if n <= 0 {
		return
	}
	blocksPerCyl := f.d.Blocks() / int64(f.d.Geometry().Cylinders)
	if blocksPerCyl < 1 {
		blocksPerCyl = 1
	}
	spread := int64(f.os.FS.MetaSeekSpread) * blocksPerCyl
	for i := 0; i < n; i++ {
		target := groupBase
		if far && f.metaAlt%2 == 1 {
			target += spread
		}
		if target >= f.d.Blocks() {
			target = f.d.Blocks() - 1
		}
		f.metaAlt++
		f.chargeSpan(f.diskTrack, "meta-write", PhaseMetaSync, f.d.Access(target, f.os.FS.MetaWriteBytes, true))
		f.stats.SyncMetaWrites++
	}
}

// groupFor returns the metadata block address of the cylinder group
// serving a directory.
func (f *FileSystem) groupFor(dir *inode) int64 {
	const groups = 16
	blocksPerCyl := f.d.Blocks() / int64(f.d.Geometry().Cylinders)
	if blocksPerCyl < 1 {
		blocksPerCyl = 1
	}
	span := 4 * blocksPerCyl
	return f.metaBase + (dir.ino%groups)*span
}

// metaUpdate applies the personality's metadata policy for an operation
// in the given directory that performs n metadata writes under MetaSync.
// far selects the delete-style scatter pattern.
func (f *FileSystem) metaUpdate(n int, dir *inode, far bool) {
	switch f.os.FS.MetaPolicy {
	case osprofile.MetaSync:
		f.syncMetaWrites(n, f.groupFor(dir), far)
	case osprofile.MetaAsync:
		// Dirty the metadata in the cache; the flusher writes it long
		// after the benchmark ends. Only CPU cost, already in OpFixed.
	case osprofile.MetaOrderedAsync:
		// Deferred writes with ordering bookkeeping: small CPU cost per
		// deferred update.
		f.charge(PhaseMetaSync, sim.Duration(n)*30*sim.Microsecond)
	}
}

// Mkdir creates a directory.
func (f *FileSystem) Mkdir(path string) error {
	if done := f.opSpan("mkdir"); done != nil {
		defer done()
	}
	f.syscall()
	parent, name, err := f.lookupParent(path)
	if err != nil {
		return err
	}
	if _, exists := parent.kids[name]; exists {
		return fmt.Errorf("fs: mkdir %q: file exists", path)
	}
	parent.kids[name] = &inode{ino: f.newIno(), dir: true, kids: make(map[string]*inode)}
	f.stats.Mkdirs++
	f.metaUpdate(f.os.FS.SyncWritesPerMkdir, parent, false)
	f.attrCache[path] = true
	return nil
}

func (f *FileSystem) newIno() int64 {
	ino := f.nextIno
	f.nextIno++
	return ino
}

// Create creates (or truncates) a file and opens it.
func (f *FileSystem) Create(path string) (*File, error) {
	if done := f.opSpan("create"); done != nil {
		defer done()
	}
	f.syscall()
	parent, name, err := f.lookupParent(path)
	if err != nil {
		return nil, err
	}
	if existing, ok := parent.kids[name]; ok {
		if existing.dir {
			return nil, fmt.Errorf("fs: create %q: is a directory", path)
		}
		f.freeBlocks(existing)
		existing.size = 0
		f.stats.Creates++
		f.metaUpdate(f.os.FS.SyncWritesPerCreate, parent, false)
		return &File{fs: f, node: existing}, nil
	}
	n := &inode{ino: f.newIno()}
	parent.kids[name] = n
	f.stats.Creates++
	f.metaUpdate(f.os.FS.SyncWritesPerCreate, parent, false)
	f.attrCache[path] = true
	return &File{fs: f, node: n}, nil
}

// Open opens an existing file for reading and writing.
func (f *FileSystem) Open(path string) (*File, error) {
	f.syscall()
	n, err := f.lookup(path)
	if err != nil {
		return nil, err
	}
	if n.dir {
		return nil, fmt.Errorf("fs: open %q: is a directory", path)
	}
	f.stats.Opens++
	return &File{fs: f, node: n}, nil
}

// Unlink removes a file, invalidating its cached blocks.
func (f *FileSystem) Unlink(path string) error {
	if done := f.opSpan("unlink"); done != nil {
		defer done()
	}
	f.syscall()
	parent, name, err := f.lookupParent(path)
	if err != nil {
		return err
	}
	n, ok := parent.kids[name]
	if !ok {
		return fmt.Errorf("fs: unlink %q: no such file", path)
	}
	if n.dir {
		return fmt.Errorf("fs: unlink %q: is a directory", path)
	}
	delete(parent.kids, name)
	f.freeBlocks(n)
	f.stats.Unlinks++
	f.metaUpdate(f.os.FS.SyncWritesPerUnlink, parent, true)
	delete(f.attrCache, path)
	return nil
}

func (f *FileSystem) freeBlocks(n *inode) {
	for _, b := range n.blocks {
		f.cache.Invalidate(b)
	}
	n.blocks = nil
}

// Rename moves a file to a new path (within this file system). Under
// MetaSync both directories' metadata commits synchronously, like a
// create in the target plus an unlink in the source — rename was exactly
// as expensive as that pair on the FFS systems, which is why 1995
// editors' save-via-rename felt the same as crtdel.
func (f *FileSystem) Rename(oldPath, newPath string) error {
	if done := f.opSpan("rename"); done != nil {
		defer done()
	}
	f.syscall()
	oldParent, oldName, err := f.lookupParent(oldPath)
	if err != nil {
		return err
	}
	n, ok := oldParent.kids[oldName]
	if !ok {
		return fmt.Errorf("fs: rename %q: no such file", oldPath)
	}
	newParent, newName, err := f.lookupParent(newPath)
	if err != nil {
		return err
	}
	if existing, exists := newParent.kids[newName]; exists {
		if existing.dir {
			return fmt.Errorf("fs: rename onto directory %q", newPath)
		}
		f.freeBlocks(existing)
	}
	delete(oldParent.kids, oldName)
	newParent.kids[newName] = n
	// Target directory update is create-like (clustered); source
	// directory update is unlink-like (scattered).
	f.metaUpdate(f.os.FS.SyncWritesPerCreate, newParent, false)
	f.metaUpdate(f.os.FS.SyncWritesPerUnlink, oldParent, true)
	delete(f.attrCache, oldPath)
	f.attrCache[newPath] = true
	return nil
}

// StatInfo is the result of Stat.
type StatInfo struct {
	Ino  int64
	Dir  bool
	Size int64
}

// Stat returns a file's attributes. With the personality's separate
// attribute cache (FreeBSD, §8.1), a hit costs almost nothing; otherwise
// the inode must be consulted through the normal paths.
func (f *FileSystem) Stat(path string) (StatInfo, error) {
	if done := f.opSpan("stat"); done != nil {
		defer done()
	}
	f.stats.Stats++
	if f.os.FS.AttrCache && f.attrCache[path] {
		f.charge(PhaseVFS, f.os.Kernel.Syscall+20*sim.Microsecond)
	} else {
		f.syscall()
		// Consulting the inode copies a fraction of a block's worth of
		// metadata through the cache path.
		f.perKB(f.os.FS.ReadPerKB, 256)
		if f.os.FS.AttrCache {
			f.attrCache[path] = true
		}
	}
	n, err := f.lookup(path)
	if err != nil {
		return StatInfo{}, err
	}
	return StatInfo{Ino: n.ino, Dir: n.dir, Size: n.size}, nil
}

// List returns the sorted names in a directory (readdir).
func (f *FileSystem) List(path string) ([]string, error) {
	f.syscall()
	n, err := f.lookup(path)
	if err != nil {
		return nil, err
	}
	if !n.dir {
		return nil, fmt.Errorf("fs: list %q: not a directory", path)
	}
	names := make([]string, 0, len(n.kids))
	for name := range n.kids {
		names = append(names, name)
	}
	sort.Strings(names)
	// Reading the directory costs one block's worth of copying.
	f.perKB(f.os.FS.ReadPerKB, 512)
	return names, nil
}

// Close closes the file.
func (fl *File) Close() {
	fl.fs.charge(PhaseVFS, fl.fs.os.Kernel.Syscall)
	fl.fs.stats.Closes++
	fl.closed = true
}

// Size returns the file's current size.
func (fl *File) Size() int64 { return fl.node.size }

// SeekTo sets the file offset (lseek with SEEK_SET). The name avoids the
// io.Seeker signature, which this simulated descriptor deliberately does
// not implement.
func (fl *File) SeekTo(offset int64) {
	fl.fs.charge(PhaseVFS, fl.fs.os.Kernel.Syscall)
	fl.offset = offset
}

// Write writes n bytes at the current offset, extending the file as
// needed, and advances the offset.
func (fl *File) Write(n int64) {
	fl.writeAt(fl.offset, n, false)
	fl.offset += n
}

// WriteAt writes n bytes at the given offset without moving the file
// offset — bonnie's random rewrite. Random I/O pays the personality's
// block-map overhead.
func (fl *File) WriteAt(off, n int64) {
	fl.writeAt(off, n, true)
}

func (fl *File) writeAt(off, n int64, random bool) {
	if fl.closed {
		panic("fs: write on closed file")
	}
	if n <= 0 {
		panic("fs: write of non-positive length")
	}
	f := fl.fs
	if done := f.opSpan("write"); done != nil {
		defer done()
	}
	k := &f.os.Kernel
	fsc := &f.os.FS
	f.maybeSteal()
	f.charge(PhaseVFS, k.Syscall+k.ReadWriteExtra)
	if random {
		f.charge(PhaseVFS, fsc.RandomIOOverhead)
	}
	f.perKB(fsc.WritePerKB, n)
	f.stats.WriteCalls++
	f.stats.BytesWritten += uint64(n)

	end := off + n
	allocated := false
	for blkIdx := off / BlockSize; blkIdx*BlockSize < end; blkIdx++ {
		blk, isNew := fl.blockFor(blkIdx)
		allocated = allocated || isNew
		if f.cache.Lookup(blk) {
			f.cache.MarkDirty(blk)
		} else {
			for _, victim := range f.cache.Insert(blk, true) {
				f.flushBlock(victim)
			}
		}
	}
	if allocated {
		// Block allocation (bitmap search, block-map locking) is paid
		// once per allocating write call; rewrites in place skip it.
		f.charge(PhaseAlloc, fsc.AllocPerCall)
	}
	if end > fl.node.size {
		fl.node.size = end
	}
	// Write-behind throttle: beyond the dirty limit the writer is made to
	// wait for the flusher.
	if f.cache.OverDirtyLimit() {
		for _, blk := range f.cache.FlushOldestDirty() {
			f.flushBlock(blk)
		}
	}
}

// blockFor returns the disk block backing file block index i, allocating
// if the file has never reached it, and reports whether allocation
// happened (the caller charges the per-call allocation cost).
func (fl *File) blockFor(i int64) (blk int64, allocated bool) {
	f := fl.fs
	for int64(len(fl.node.blocks)) <= i {
		allocated = true
		b := f.nextData
		f.nextData++
		if f.nextData >= f.d.Blocks() {
			f.nextData = f.dataBase // wrap: model reuse of freed space
		}
		fl.node.blocks = append(fl.node.blocks, b)
	}
	return fl.node.blocks[i], allocated
}

// flushBlock charges for writing a dirty block out via the write-behind
// machinery: the flusher clusters dirty blocks into sequential runs, so
// the cost is media bandwidth at the personality's write efficiency, with
// no foreground head motion.
func (f *FileSystem) flushBlock(blk int64) {
	_ = blk
	t := f.d.StreamTransferTime(BlockSize)
	f.chargeSpan(f.diskTrack, "flush", PhaseWriteBack, sim.Duration(float64(t)/f.os.FS.SeqWriteEff))
	f.stats.DataDiskWrites++
}

// Read reads n bytes at the current offset and advances it. Reading past
// end of file reads what is there (returned count).
func (fl *File) Read(n int64) int64 {
	got := fl.readAt(fl.offset, n, false)
	fl.offset += got
	return got
}

// ReadAt reads n bytes at the given offset without moving the file
// offset — bonnie's random read. Random misses pay full disk mechanics
// (seek and rotation) rather than streaming rates.
func (fl *File) ReadAt(off, n int64) int64 {
	return fl.readAt(off, n, true)
}

func (fl *File) readAt(off, n int64, random bool) int64 {
	if fl.closed {
		panic("fs: read on closed file")
	}
	if n <= 0 {
		panic("fs: read of non-positive length")
	}
	f := fl.fs
	if done := f.opSpan("read"); done != nil {
		defer done()
	}
	k := &f.os.Kernel
	fsc := &f.os.FS
	f.maybeSteal()
	f.charge(PhaseVFS, k.Syscall+k.ReadWriteExtra)
	if random {
		f.charge(PhaseVFS, fsc.RandomIOOverhead)
	}
	if off >= fl.node.size {
		return 0
	}
	if off+n > fl.node.size {
		n = fl.node.size - off
	}
	f.perKB(fsc.ReadPerKB, n)
	f.stats.ReadCalls++
	f.stats.BytesRead += uint64(n)

	end := off + n
	for blkIdx := off / BlockSize; blkIdx*BlockSize < end; blkIdx++ {
		if int64(len(fl.node.blocks)) <= blkIdx {
			break // sparse tail
		}
		blk := fl.node.blocks[blkIdx]
		if f.cache.Lookup(blk) {
			continue
		}
		t := f.d.Access(blk, BlockSize, false)
		if !random {
			// Sequential misses run at the personality's read-ahead
			// efficiency.
			t = sim.Duration(float64(t) / fsc.SeqReadEff)
		}
		f.chargeSpan(f.diskTrack, "disk-read", PhaseDiskRead, t)
		f.stats.DataDiskReads++
		for _, victim := range f.cache.Insert(blk, false) {
			f.flushBlock(victim)
		}
	}
	return n
}

// CommitFile synchronously commits a file: its dirty data blocks go to
// disk with real head motion (the commit cannot be deferred or clustered
// with anything), plus metaWrites synchronous metadata updates (inode
// times, indirect blocks). This is what an NFS server that honours the
// spec's write-through requirement does on every write RPC (§10).
func (f *FileSystem) CommitFile(fl *File, metaWrites int) {
	if done := f.opSpan("commit"); done != nil {
		defer done()
	}
	for _, blk := range fl.node.blocks {
		if f.cache.CleanBlock(blk) {
			f.chargeSpan(f.diskTrack, "commit-write", PhaseWriteBack, f.d.Access(blk, BlockSize, true))
			f.stats.DataDiskWrites++
		}
	}
	f.syncMetaWrites(metaWrites, f.metaBase, false)
}

// SyncAll flushes every dirty block (unmount or sync(2)).
func (f *FileSystem) SyncAll() {
	for _, blk := range f.cache.FlushAll() {
		f.flushBlock(blk)
	}
}
