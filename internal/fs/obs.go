package fs

import (
	"repro/internal/obs"
	"repro/internal/sim"
)

// Phase classifies every unit of virtual time the file system charges, so
// that a crtdel or bonnie run can be decomposed into the layers the paper
// discusses in §7: VFS entry work, data copies, block allocation,
// synchronous metadata commits, foreground disk reads, and write-behind.
// The ledger is always on — tagging a charge is one array add — which
// gives the structural identity behind `pentiumbench metrics`: the phase
// times sum exactly to the time the file system charged its clock.
type Phase int

const (
	// PhaseVFS is system-call entry, the fixed per-operation cost, path
	// and attribute work, and random-I/O block-map overhead.
	PhaseVFS Phase = iota
	// PhaseCopy is data movement between user space and the buffer cache
	// (the per-KB read/write rates).
	PhaseCopy
	// PhaseAlloc is block allocation work (bitmap search, block-map
	// locking), paid once per allocating write call.
	PhaseAlloc
	// PhaseMetaSync is synchronous metadata disk writes (FFS create,
	// unlink, mkdir) and the ordered-async bookkeeping that replaces them.
	PhaseMetaSync
	// PhaseDiskRead is foreground disk mechanics on read misses.
	PhaseDiskRead
	// PhaseWriteBack is dirty-block flushing: write-behind streaming and
	// synchronous commits.
	PhaseWriteBack
	// NumPhases sizes phase-indexed arrays.
	NumPhases
)

// String names the phase for metric keys and tables.
func (p Phase) String() string {
	switch p {
	case PhaseVFS:
		return "vfs"
	case PhaseCopy:
		return "copy"
	case PhaseAlloc:
		return "alloc"
	case PhaseMetaSync:
		return "metasync"
	case PhaseDiskRead:
		return "diskread"
	case PhaseWriteBack:
		return "writeback"
	}
	return "unknown"
}

// Observe attaches a trace recorder. The file system emits spans on an
// "fs" track for each operation and on a "disk" track for each disk-level
// charge (metadata writes, read misses, flushes). A nil recorder
// detaches; detached, the instrumentation costs one nil check per site.
func (f *FileSystem) Observe(rec *obs.Recorder) {
	f.rec = rec
	if rec != nil {
		f.fsTrack = rec.Track("fs")
		f.diskTrack = rec.Track("disk")
	}
}

// PhaseTime returns the virtual time charged to one phase since Remake.
func (f *FileSystem) PhaseTime(ph Phase) sim.Duration { return f.phases[ph] }

// PhaseBreakdown returns the full phase ledger. The entries sum exactly
// to the virtual time this file system has charged to its clock since
// Remake: every charge site is tagged, so the identity is structural, not
// approximate.
func (f *FileSystem) PhaseBreakdown() [NumPhases]sim.Duration { return f.phases }

// FoldMetrics adds the file system's activity counters and phase ledger
// into a registry under the given prefix (e.g. "fs.").
func (f *FileSystem) FoldMetrics(reg *obs.Registry, prefix string) {
	s := f.stats
	reg.Counter(prefix + "creates").Add(float64(s.Creates))
	reg.Counter(prefix + "unlinks").Add(float64(s.Unlinks))
	reg.Counter(prefix + "mkdirs").Add(float64(s.Mkdirs))
	reg.Counter(prefix + "opens").Add(float64(s.Opens))
	reg.Counter(prefix + "closes").Add(float64(s.Closes))
	reg.Counter(prefix + "stat_calls").Add(float64(s.Stats))
	reg.Counter(prefix + "read_calls").Add(float64(s.ReadCalls))
	reg.Counter(prefix + "write_calls").Add(float64(s.WriteCalls))
	reg.Counter(prefix + "bytes_read").Add(float64(s.BytesRead))
	reg.Counter(prefix + "bytes_written").Add(float64(s.BytesWritten))
	reg.Counter(prefix + "sync_meta_writes").Add(float64(s.SyncMetaWrites))
	reg.Counter(prefix + "data_disk_reads").Add(float64(s.DataDiskReads))
	reg.Counter(prefix + "data_disk_writes").Add(float64(s.DataDiskWrites))
	for ph := Phase(0); ph < NumPhases; ph++ {
		reg.Counter(prefix + "phase_us." + ph.String()).Add(f.phases[ph].Microseconds())
	}
}

// chargeSpan brackets a tagged charge with a span on the given track,
// attributing the charged microseconds as the span cost. With no recorder
// it degenerates to charge.
func (f *FileSystem) chargeSpan(track obs.TrackID, name string, ph Phase, d sim.Duration) {
	f.rec.Begin(track, name)
	f.charge(ph, d)
	f.rec.End(track, name, d.Microseconds())
}

// opSpan opens a span named for a top-level operation on the fs track and
// returns its closer, or nil when no recorder is attached. Call sites use
//
//	if done := f.opSpan("create"); done != nil { defer done() }
//
// so the disabled path neither allocates the closure nor registers the
// defer.
func (f *FileSystem) opSpan(name string) func() {
	if f.rec == nil {
		return nil
	}
	start := f.clock.Now()
	f.rec.Begin(f.fsTrack, name)
	return func() {
		f.rec.End(f.fsTrack, name, f.clock.Now().Sub(start).Microseconds())
	}
}
