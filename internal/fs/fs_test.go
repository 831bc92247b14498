package fs

import (
	"testing"

	"repro/internal/disk"
	"repro/internal/osprofile"
	"repro/internal/sim"
)

// rig is a file system plus its clock, for cost assertions.
type rig struct {
	clock *sim.Clock
	fs    *FileSystem
}

func newRig(p *osprofile.Profile) *rig {
	clock := &sim.Clock{}
	d := disk.MustNew(disk.HP3725(), sim.NewRNG(7))
	return &rig{clock: clock, fs: MustNew(clock, d, p)}
}

func (r *rig) elapsed(fn func()) sim.Duration {
	start := r.clock.Now()
	fn()
	return r.clock.Now().Sub(start)
}

func TestCreateOpenReadWriteUnlink(t *testing.T) {
	r := newRig(osprofile.Linux128())
	f, err := r.fs.Create("/tmp.txt")
	if err != nil {
		t.Fatal(err)
	}
	f.Write(10000)
	f.Close()
	if !r.fs.Exists("/tmp.txt") {
		t.Fatal("created file does not exist")
	}
	g, err := r.fs.Open("/tmp.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Read(20000); got != 10000 {
		t.Fatalf("Read = %d, want the 10000 written", got)
	}
	g.Close()
	if err := r.fs.Unlink("/tmp.txt"); err != nil {
		t.Fatal(err)
	}
	if r.fs.Exists("/tmp.txt") {
		t.Fatal("unlinked file still exists")
	}
}

func TestDirectories(t *testing.T) {
	r := newRig(osprofile.FreeBSD205())
	mustMkdir := func(p string) {
		t.Helper()
		if err := r.fs.Mkdir(p); err != nil {
			t.Fatal(err)
		}
	}
	mustMkdir("/a")
	mustMkdir("/a/b")
	if _, err := r.fs.Create("/a/b/f1"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.fs.Create("/a/b/f2"); err != nil {
		t.Fatal(err)
	}
	names, err := r.fs.List("/a/b")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "f1" || names[1] != "f2" {
		t.Fatalf("List = %v, want [f1 f2]", names)
	}
	st, err := r.fs.Stat("/a/b")
	if err != nil || !st.Dir {
		t.Fatalf("Stat dir: %v %+v", err, st)
	}
}

func TestErrors(t *testing.T) {
	r := newRig(osprofile.Solaris24())
	if _, err := r.fs.Open("/missing"); err == nil {
		t.Error("Open of missing file must fail")
	}
	if err := r.fs.Unlink("/missing"); err == nil {
		t.Error("Unlink of missing file must fail")
	}
	if err := r.fs.Mkdir("/x/y/z"); err == nil {
		t.Error("Mkdir with missing parents must fail")
	}
	r.fs.Mkdir("/d")
	if err := r.fs.Mkdir("/d"); err == nil {
		t.Error("duplicate Mkdir must fail")
	}
	if _, err := r.fs.Create("/d"); err == nil {
		t.Error("Create over a directory must fail")
	}
	if err := r.fs.Unlink("/d"); err == nil {
		t.Error("Unlink of a directory must fail")
	}
	if _, err := r.fs.Open("/d"); err == nil {
		t.Error("Open of a directory must fail")
	}
	if _, err := r.fs.List("/missing"); err == nil {
		t.Error("List of missing dir must fail")
	}
}

func TestCreateTruncatesExisting(t *testing.T) {
	r := newRig(osprofile.Linux128())
	f, _ := r.fs.Create("/t")
	f.Write(50000)
	f.Close()
	g, _ := r.fs.Create("/t")
	if g.Size() != 0 {
		t.Fatalf("re-Create left size %d, want 0", g.Size())
	}
	g.Close()
}

func TestAsyncMetadataAvoidsDisk(t *testing.T) {
	// §7.2: "Linux clearly is not accessing the disk during this
	// benchmark" — a create/write/read/delete cycle on ext2 must perform
	// no synchronous metadata writes and finish in a few milliseconds.
	r := newRig(osprofile.Linux128())
	d := r.elapsed(func() {
		f, _ := r.fs.Create("/f")
		f.Write(1024)
		f.Close()
		g, _ := r.fs.Open("/f")
		g.Read(1024)
		g.Close()
		r.fs.Unlink("/f")
	})
	if got := r.fs.Stats().SyncMetaWrites; got != 0 {
		t.Fatalf("ext2 performed %d sync metadata writes, want 0", got)
	}
	if d > 10*sim.Millisecond {
		t.Fatalf("ext2 crtdel iteration took %v, want a few ms", d)
	}
}

func TestSyncMetadataHitsDisk(t *testing.T) {
	r := newRig(osprofile.FreeBSD205())
	d := r.elapsed(func() {
		f, _ := r.fs.Create("/f")
		f.Write(1024)
		f.Close()
		g, _ := r.fs.Open("/f")
		g.Read(1024)
		g.Close()
		r.fs.Unlink("/f")
	})
	fsc := r.fs.os.FS
	want := uint64(fsc.SyncWritesPerCreate + fsc.SyncWritesPerUnlink)
	if got := r.fs.Stats().SyncMetaWrites; got != want {
		t.Fatalf("FFS sync writes = %d, want %d", got, want)
	}
	if d < 20*sim.Millisecond {
		t.Fatalf("FFS crtdel iteration took only %v; sync metadata must dominate", d)
	}
}

func TestCrtdelOrderOfMagnitudeGap(t *testing.T) {
	// §7: "Linux is an order of magnitude faster than the other systems"
	// on small-file create/delete workloads.
	iter := func(p *osprofile.Profile) sim.Duration {
		r := newRig(p)
		return r.elapsed(func() {
			for i := 0; i < 10; i++ {
				f, _ := r.fs.Create("/f")
				f.Write(1024)
				f.Close()
				g, _ := r.fs.Open("/f")
				g.Read(1024)
				g.Close()
				r.fs.Unlink("/f")
			}
		}) / 10
	}
	linux := iter(osprofile.Linux128())
	fbsd := iter(osprofile.FreeBSD205())
	sol := iter(osprofile.Solaris24())
	if fbsd < 8*linux {
		t.Errorf("FreeBSD %v not an order of magnitude above Linux %v", fbsd, linux)
	}
	if sol < 8*linux {
		t.Errorf("Solaris %v not an order of magnitude above Linux %v", sol, linux)
	}
	if fbsd < sol+20*sim.Millisecond {
		t.Errorf("FreeBSD %v should exceed Solaris %v by ~32ms (§7.2)", fbsd, sol)
	}
}

func TestOrderedAsyncIsCheap(t *testing.T) {
	// §13: FreeBSD 2.1's ordered async updates fix small-file performance.
	r := newRig(osprofile.FreeBSD21())
	d := r.elapsed(func() {
		f, _ := r.fs.Create("/f")
		f.Write(1024)
		f.Close()
		r.fs.Unlink("/f")
	})
	if r.fs.Stats().SyncMetaWrites != 0 {
		t.Fatal("ordered async policy must not write metadata synchronously")
	}
	if d > 10*sim.Millisecond {
		t.Fatalf("ordered-async create/delete took %v, want a few ms", d)
	}
}

func TestDataCachedUpToCacheSize(t *testing.T) {
	// Figures 9-11: files up to ~20 MB are served from the cache.
	r := newRig(osprofile.FreeBSD205())
	f, _ := r.fs.Create("/big")
	f.Write(10 << 20)
	f.Close()
	r.fs.Stats()
	g, _ := r.fs.Open("/big")
	before := r.fs.Stats().DataDiskReads
	g.Read(10 << 20)
	g.Close()
	if got := r.fs.Stats().DataDiskReads - before; got != 0 {
		t.Fatalf("10 MB re-read hit the disk %d times; should be fully cached", got)
	}
}

func TestLargeFileMissesCache(t *testing.T) {
	r := newRig(osprofile.FreeBSD205())
	size := int64(30 << 20) // beyond the 20 MB cache
	f, _ := r.fs.Create("/huge")
	f.Write(size)
	f.Close()
	g, _ := r.fs.Open("/huge")
	before := r.fs.Stats().DataDiskReads
	g.Read(size)
	g.Close()
	misses := r.fs.Stats().DataDiskReads - before
	blocks := uint64(size / BlockSize)
	// A sequential scan of a file 1.5x the cache re-misses every block
	// under LRU.
	if misses < blocks*9/10 {
		t.Fatalf("30 MB scan missed only %d of %d blocks", misses, blocks)
	}
}

func TestDirtyThrottleFlushes(t *testing.T) {
	r := newRig(osprofile.FreeBSD205())
	f, _ := r.fs.Create("/big")
	f.Write(12 << 20) // beyond the 8 MB dirty limit
	f.Close()
	if w := r.fs.Stats().DataDiskWrites; w == 0 {
		t.Fatal("writing past the dirty limit must flush to disk")
	}
	if d := r.fs.cache.DirtyBytes(); d > int64(r.fs.os.FS.DirtyLimitMB)<<20 {
		t.Fatalf("dirty bytes %d exceed the limit after throttling", d)
	}
}

func TestRandomReadOutOfCacheNear14ms(t *testing.T) {
	// Figure 11: random seeks to uncached blocks converge to ~14 ms on
	// every system.
	r := newRig(osprofile.Solaris24())
	size := int64(60 << 20)
	f, _ := r.fs.Create("/seekfile")
	f.Write(size)
	f.Close()
	g, _ := r.fs.Open("/seekfile")
	rng := sim.NewRNG(3)
	const seeks = 200
	var total sim.Duration
	hits := 0
	for i := 0; i < seeks; i++ {
		off := rng.Int63n(size - BlockSize)
		before := r.fs.Stats().DataDiskReads
		d := r.elapsed(func() { g.ReadAt(off, BlockSize) })
		if r.fs.Stats().DataDiskReads == before {
			hits++
			continue
		}
		total += d
	}
	g.Close()
	missCount := seeks - hits
	if missCount < seeks/2 {
		t.Fatalf("only %d of %d seeks missed on a 60 MB file", missCount, seeks)
	}
	mean := total / sim.Duration(missCount)
	if mean < 9*sim.Millisecond || mean > 20*sim.Millisecond {
		t.Fatalf("mean uncached random read = %v, want ~14ms", mean)
	}
}

func TestAttrCacheSpeedsStat(t *testing.T) {
	// §8.1: FreeBSD's attribute cache makes repeat stats nearly free.
	fb := newRig(osprofile.FreeBSD205())
	fb.fs.Mkdir("/d")
	fb.fs.Create("/d/f")
	warm := fb.elapsed(func() { fb.fs.Stat("/d/f") })

	lx := newRig(osprofile.Linux128())
	lx.fs.Mkdir("/d")
	lx.fs.Create("/d/f")
	cold := lx.elapsed(func() { lx.fs.Stat("/d/f") })
	if warm >= cold {
		t.Fatalf("FreeBSD attr-cached stat (%v) should beat Linux stat (%v)", warm, cold)
	}
}

func TestSeekToAndOffset(t *testing.T) {
	r := newRig(osprofile.Linux128())
	f, _ := r.fs.Create("/f")
	f.Write(100000)
	f.SeekTo(5000)
	if f.offset != 5000 {
		t.Fatalf("Offset = %d, want 5000", f.offset)
	}
	got := f.Read(1000)
	if got != 1000 || f.offset != 6000 {
		t.Fatalf("Read after seek: n=%d offset=%d", got, f.offset)
	}
	f.Close()
}

func TestReadPastEOF(t *testing.T) {
	r := newRig(osprofile.Linux128())
	f, _ := r.fs.Create("/f")
	f.Write(100)
	f.SeekTo(100)
	if got := f.Read(50); got != 0 {
		t.Fatalf("read at EOF returned %d", got)
	}
	f.SeekTo(50)
	if got := f.Read(500); got != 50 {
		t.Fatalf("short read returned %d, want 50", got)
	}
	f.Close()
}

func TestClosedFilePanics(t *testing.T) {
	r := newRig(osprofile.Linux128())
	f, _ := r.fs.Create("/f")
	f.Write(10)
	f.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("write on closed file did not panic")
		}
	}()
	f.Write(10)
}

func TestRemakeResetsEverything(t *testing.T) {
	r := newRig(osprofile.FreeBSD205())
	r.fs.Create("/f")
	r.fs.Remake()
	if r.fs.Exists("/f") {
		t.Fatal("Remake left old files")
	}
	if r.fs.Stats().Creates != 0 {
		t.Fatal("Remake left old stats")
	}
	if r.fs.cache.Bytes() != 0 {
		t.Fatal("Remake left cached blocks")
	}
}

func TestSyncAllCleansCache(t *testing.T) {
	r := newRig(osprofile.Linux128())
	f, _ := r.fs.Create("/f")
	f.Write(1 << 20)
	f.Close()
	if r.fs.cache.DirtyBytes() == 0 {
		t.Fatal("expected dirty data before sync")
	}
	r.fs.SyncAll()
	if r.fs.cache.DirtyBytes() != 0 {
		t.Fatal("SyncAll left dirty data")
	}
}

func TestUnlinkInvalidatesCachedBlocks(t *testing.T) {
	r := newRig(osprofile.Linux128())
	f, _ := r.fs.Create("/f")
	f.Write(1 << 20)
	f.Close()
	before := r.fs.cache.Bytes()
	r.fs.Unlink("/f")
	if after := r.fs.cache.Bytes(); after >= before {
		t.Fatalf("unlink did not shrink cache: %d -> %d", before, after)
	}
}

func TestFSDeterminism(t *testing.T) {
	run := func() sim.Time {
		r := newRig(osprofile.Solaris24())
		for i := 0; i < 20; i++ {
			f, _ := r.fs.Create("/f")
			f.Write(64 << 10)
			f.Close()
			r.fs.Unlink("/f")
		}
		return r.clock.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("fs not deterministic: %v vs %v", a, b)
	}
}

func TestRename(t *testing.T) {
	r := newRig(osprofile.Linux128())
	r.fs.Mkdir("/a")
	r.fs.Mkdir("/b")
	f, _ := r.fs.Create("/a/x")
	f.Write(5000)
	f.Close()
	if err := r.fs.Rename("/a/x", "/b/y"); err != nil {
		t.Fatal(err)
	}
	if r.fs.Exists("/a/x") || !r.fs.Exists("/b/y") {
		t.Fatal("rename did not move the file")
	}
	st, err := r.fs.Stat("/b/y")
	if err != nil || st.Size != 5000 {
		t.Fatalf("renamed file lost its data: %+v %v", st, err)
	}
}

func TestRenameOverwrites(t *testing.T) {
	r := newRig(osprofile.Linux128())
	a, _ := r.fs.Create("/a")
	a.Write(100)
	a.Close()
	b, _ := r.fs.Create("/b")
	b.Write(999)
	b.Close()
	if err := r.fs.Rename("/a", "/b"); err != nil {
		t.Fatal(err)
	}
	st, _ := r.fs.Stat("/b")
	if st.Size != 100 {
		t.Fatalf("rename-over did not replace: size %d", st.Size)
	}
}

func TestRenameErrors(t *testing.T) {
	r := newRig(osprofile.FreeBSD205())
	if err := r.fs.Rename("/missing", "/x"); err == nil {
		t.Error("rename of missing file must fail")
	}
	r.fs.Mkdir("/d")
	r.fs.Create("/f")
	if err := r.fs.Rename("/f", "/d"); err == nil {
		t.Error("rename onto a directory must fail")
	}
	if err := r.fs.Rename("/f", "/nodir/x"); err == nil {
		t.Error("rename into a missing directory must fail")
	}
}

func TestRenameSyncMetadataCost(t *testing.T) {
	// Under FFS, rename commits like create+unlink; under ext2 it is
	// cache-only.
	lx := newRig(osprofile.Linux128())
	lx.fs.Create("/f")
	before := lx.fs.Stats().SyncMetaWrites
	lx.fs.Rename("/f", "/g")
	if lx.fs.Stats().SyncMetaWrites != before {
		t.Error("ext2 rename must not write metadata synchronously")
	}

	fb := newRig(osprofile.FreeBSD205())
	fb.fs.Create("/f")
	before = fb.fs.Stats().SyncMetaWrites
	fb.fs.Rename("/f", "/g")
	fsc := fb.fs.os.FS
	want := before + uint64(fsc.SyncWritesPerCreate+fsc.SyncWritesPerUnlink)
	if got := fb.fs.Stats().SyncMetaWrites; got != want {
		t.Errorf("FFS rename sync writes = %d, want %d", got, want)
	}
}
