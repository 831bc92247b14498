// Package disk models the mechanics of the paper platform's SCSI disks: a
// Quantum Empire 2100S holding the operating systems and an HP 3725 used as
// the dedicated benchmarking disk (§2.2, §7).
//
// The model charges seek time (a track-to-track constant plus a square-root
// term in the seek distance, the standard first-order model of arm motion),
// rotational latency (drawn uniformly from one revolution, or zero when the
// access continues the previous transfer), media transfer time, and a fixed
// controller overhead per operation. The paper's measured figure that all
// three systems converge to about 14 ms per random seek-and-I/O (§7.1) is
// an emergent property of these parameters.
package disk

import (
	"fmt"
	"math"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
)

// BlockSize is the unit of disk transfer used by the file systems, in
// bytes. Both 1995 file systems did disk I/O in multiples of this.
const BlockSize = 8192

// Geometry describes a disk drive.
type Geometry struct {
	// Name is the drive's marketing name.
	Name string
	// CapacityMB is the usable capacity in megabytes.
	CapacityMB int
	// Cylinders is the cylinder count, used to scale seek distances.
	Cylinders int
	// RPM is the spindle speed.
	RPM float64
	// TrackToTrack is the minimum seek (adjacent cylinder).
	TrackToTrack sim.Duration
	// AvgSeek is the manufacturer average seek (one-third stroke).
	AvgSeek sim.Duration
	// TransferMBs is the sustained media transfer rate in MB/s.
	TransferMBs float64
	// ControllerOverhead is the fixed per-command cost (SCSI command
	// processing; the paper's NCR 53c810 had no on-board cache).
	ControllerOverhead sim.Duration
}

// QuantumEmpire2100 returns the geometry of the first disk (OS partitions).
func QuantumEmpire2100() Geometry {
	return Geometry{
		Name:               "Quantum Empire 2100S",
		CapacityMB:         2100,
		Cylinders:          3658,
		RPM:                5400,
		TrackToTrack:       1 * sim.Millisecond,
		AvgSeek:            9 * sim.Millisecond,
		TransferMBs:        4.8,
		ControllerOverhead: 500 * sim.Microsecond,
	}
}

// HP3725 returns the geometry of the second disk, on which all file system
// benchmarks run (§2.2: "All benchmarks that manipulate files refer to
// files on this second disk").
func HP3725() Geometry {
	return Geometry{
		Name:               "HP 3725",
		CapacityMB:         2000,
		Cylinders:          2902,
		RPM:                5400,
		TrackToTrack:       1 * sim.Millisecond,
		AvgSeek:            8500 * sim.Microsecond,
		TransferMBs:        4.5,
		ControllerOverhead: 500 * sim.Microsecond,
	}
}

// Stats counts the traffic a disk has served.
type Stats struct {
	Reads, Writes   uint64
	BytesRead       uint64
	BytesWritten    uint64
	SeekTime        sim.Duration
	RotationTime    sim.Duration
	TransferTime    sim.Duration
	Seeks           uint64 // operations that moved the arm (non-sequential)
	SequentialHits  uint64 // operations that continued the previous access
	TotalOperations uint64
}

// Disk is one simulated drive. It tracks head position so consecutive
// accesses to nearby blocks seek less, which is what makes synchronous
// metadata updates to clustered inode/directory blocks cheaper than random
// I/O — and what makes a file system that scatters its metadata (the
// paper's FreeBSD observation, §7.2) measurably slower.
//
// Disk is not safe for concurrent use.
type Disk struct {
	geom      Geometry
	rng       *sim.RNG
	inj       *fault.DiskInjector
	headCyl   int
	nextBlock int64 // block following the last access, for sequential detection
	stats     Stats

	blocksPerCyl int64
	totalBlocks  int64

	// Time-series handles, nil unless Sample attached them. The disk has
	// no clock of its own — the attached clock timestamps the windows.
	clk      *sim.Clock
	tsOps    *obs.SeriesCounter
	tsBusy   *obs.SeriesCounter
	tsFault  *obs.SeriesCounter
	tsFaultN *obs.SeriesCounter
}

// New builds a disk with the given geometry. The RNG supplies rotational
// phases; passing a fork of the experiment RNG keeps runs reproducible.
// Invalid geometry (a -profiles typo, a bad custom platform) is a
// returned error, never a panic.
func New(geom Geometry, rng *sim.RNG) (*Disk, error) {
	if geom.Cylinders <= 0 || geom.CapacityMB <= 0 || geom.TransferMBs <= 0 || geom.RPM <= 0 {
		return nil, fmt.Errorf("disk: invalid geometry %+v", geom)
	}
	total := int64(geom.CapacityMB) << 20 / BlockSize
	bpc := total / int64(geom.Cylinders)
	if bpc == 0 {
		bpc = 1
	}
	return &Disk{
		geom:         geom,
		rng:          rng,
		blocksPerCyl: bpc,
		totalBlocks:  total,
		nextBlock:    -1,
	}, nil
}

// MustNew is New for the built-in geometries, whose validity is a
// compile-time fact.
func MustNew(geom Geometry, rng *sim.RNG) *Disk {
	d, err := New(geom, rng)
	if err != nil {
		panic(err)
	}
	return d
}

// SetFaults attaches a fault injector (nil detaches). A nil injector adds
// zero time without touching any RNG, so unfaulted runs are byte-identical
// to builds without the fault layer.
func (d *Disk) SetFaults(inj *fault.DiskInjector) { d.inj = inj }

// Sample attaches a virtual-time time-series sampler, timestamping each
// observation off the given clock (the caller's model clock — the disk
// keeps no time of its own). Per window it records operation count
// (disk.ops), total mechanical time (disk.busy_ns — busy over window
// width is utilization), and injected fault time and event count
// (disk.fault_extra_ns, fault.disk_events). Nil detaches; the unsampled
// path pays one nil check per access.
func (d *Disk) Sample(clk *sim.Clock, smp *obs.Sampler) {
	if clk == nil || smp == nil {
		d.clk, d.tsOps, d.tsBusy, d.tsFault, d.tsFaultN = nil, nil, nil, nil, nil
		return
	}
	d.clk = clk
	d.tsOps = smp.Counter("disk.ops")
	d.tsBusy = smp.Counter("disk.busy_ns")
	d.tsFault = smp.Counter("disk.fault_extra_ns")
	d.tsFaultN = smp.Counter("fault.disk_events")
}

// Geometry returns the drive's description.
func (d *Disk) Geometry() Geometry { return d.geom }

// Stats returns a copy of the traffic counters.
func (d *Disk) Stats() Stats { return d.stats }

// ResetStats zeroes the counters.
func (d *Disk) ResetStats() { d.stats = Stats{} }

// Blocks returns the number of addressable blocks.
func (d *Disk) Blocks() int64 { return d.totalBlocks }

// rotation is the duration of one revolution.
func (d *Disk) rotation() sim.Duration {
	return sim.Duration(60.0 / d.geom.RPM * float64(sim.Second))
}

// seekTime models arm motion: a constant settle plus a square-root term
// calibrated so a one-third-stroke seek costs AvgSeek.
func (d *Disk) seekTime(fromCyl, toCyl int) sim.Duration {
	if fromCyl == toCyl {
		return 0
	}
	dist := float64(toCyl - fromCyl)
	if dist < 0 {
		dist = -dist
	}
	third := float64(d.geom.Cylinders) / 3
	coeff := float64(d.geom.AvgSeek-d.geom.TrackToTrack) / math.Sqrt(third)
	return d.geom.TrackToTrack + sim.Duration(coeff*math.Sqrt(dist))
}

// Access performs a synchronous transfer of nbytes starting at the given
// block and returns the time it takes. Sequential continuation of the
// previous access skips both seek and rotational delay (the drive streams
// off the platter).
func (d *Disk) Access(block int64, nbytes int, write bool) sim.Duration {
	if block < 0 || block >= d.totalBlocks {
		panic(fmt.Sprintf("disk %s: block %d out of range [0,%d)", d.geom.Name, block, d.totalBlocks))
	}
	if nbytes <= 0 {
		panic("disk: transfer size must be positive")
	}
	d.stats.TotalOperations++
	if write {
		d.stats.Writes++
		d.stats.BytesWritten += uint64(nbytes)
	} else {
		d.stats.Reads++
		d.stats.BytesRead += uint64(nbytes)
	}

	var t sim.Duration
	cyl := int(block / d.blocksPerCyl)
	if block == d.nextBlock {
		// Streaming continuation: no seek, no rotational delay.
		d.stats.SequentialHits++
	} else {
		seek := d.seekTime(d.headCyl, cyl)
		rot := sim.Duration(d.rng.Int63n(int64(d.rotation())))
		d.stats.Seeks++
		d.stats.SeekTime += seek
		d.stats.RotationTime += rot
		t += seek + rot
	}
	xfer := sim.Duration(float64(nbytes) / (d.geom.TransferMBs * 1e6) * float64(sim.Second))
	d.stats.TransferTime += xfer
	t += xfer + d.geom.ControllerOverhead
	// Injected faults (latency spikes, slow-sector remaps, transient
	// retries) ride the same return path, so the caller's phase ledger
	// charges them exactly where the mechanical time already goes.
	extra := d.inj.AccessExtra(d.rotation(), d.geom.AvgSeek, d.geom.ControllerOverhead)
	t += extra
	if d.tsOps != nil {
		now := d.clk.Now()
		d.tsOps.Inc(now)
		d.tsBusy.Add(now, int64(t))
		if extra > 0 {
			d.tsFault.Add(now, int64(extra))
			d.tsFaultN.Inc(now)
		}
	}

	d.headCyl = cyl
	d.nextBlock = block + int64((nbytes+BlockSize-1)/BlockSize)
	return t
}

// StreamTransferTime returns the media-rate cost of moving nbytes without
// head motion. The file systems use it for write-behind: the update
// daemon and clustering machinery turn dirty-block flushes into large
// sequential runs that overlap with foreground work, so an evicted block
// costs bandwidth but not a seek.
func (d *Disk) StreamTransferTime(nbytes int) sim.Duration {
	if nbytes <= 0 {
		panic("disk: stream transfer of non-positive size")
	}
	d.stats.Writes++
	d.stats.BytesWritten += uint64(nbytes)
	d.stats.TotalOperations++
	xfer := sim.Duration(float64(nbytes) / (d.geom.TransferMBs * 1e6) * float64(sim.Second))
	d.stats.TransferTime += xfer
	if d.tsOps != nil {
		now := d.clk.Now()
		d.tsOps.Inc(now)
		d.tsBusy.Add(now, int64(xfer))
	}
	return xfer
}

// AvgRandomAccess estimates the expected cost of a random single-block
// access: average seek, half a rotation, one block transfer, and the
// controller overhead. The paper measured ~14 ms for this on its disks.
func (d *Disk) AvgRandomAccess(nbytes int) sim.Duration {
	return d.geom.AvgSeek + d.rotation()/2 +
		sim.Duration(float64(nbytes)/(d.geom.TransferMBs*1e6)*float64(sim.Second)) +
		d.geom.ControllerOverhead
}
