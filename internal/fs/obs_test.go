package fs

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/osprofile"
	"repro/internal/sim"
)

// workload exercises every charge path: directory metadata, create,
// sequential and random writes, reads beyond the cache, stat, rename,
// unlink, and a final sync.
func workload(f *FileSystem) {
	if err := f.Mkdir("/d"); err != nil {
		panic(err)
	}
	for i := 0; i < 4; i++ {
		path := fmt.Sprintf("/d/f%d", i)
		fl, err := f.Create(path)
		if err != nil {
			panic(err)
		}
		fl.Write(256 << 10)
		fl.WriteAt(0, 4096)
		fl.SeekTo(0)
		fl.Read(128 << 10)
		fl.ReadAt(64<<10, 4096)
		fl.Close()
		if _, err := f.Stat(path); err != nil {
			panic(err)
		}
	}
	if err := f.Rename("/d/f0", "/d/g0"); err != nil {
		panic(err)
	}
	if err := f.Unlink("/d/g0"); err != nil {
		panic(err)
	}
	f.SyncAll()
}

// The phase ledger is exact: every duration the file system charges is
// tagged with a phase, so the phases sum to the elapsed virtual time to
// the nanosecond, on every personality.
func TestFSPhaseSumsEqualElapsed(t *testing.T) {
	for _, p := range osprofile.All() {
		t.Run(p.Name, func(t *testing.T) {
			r := newRig(p)
			start := r.clock.Now()
			workload(r.fs)
			elapsed := r.clock.Now().Sub(start)

			var sum sim.Duration
			for ph := Phase(0); ph < NumPhases; ph++ {
				sum += r.fs.PhaseTime(ph)
			}
			if sum != elapsed {
				t.Fatalf("phase sum %v != elapsed %v (breakdown %v)",
					sum, elapsed, r.fs.PhaseBreakdown())
			}
			nonzero := []Phase{PhaseVFS, PhaseCopy, PhaseAlloc}
			if p.FS.MetaPolicy != osprofile.MetaAsync {
				// ext2fs commits metadata asynchronously: no MetaSync time.
				nonzero = append(nonzero, PhaseMetaSync)
			}
			for _, ph := range nonzero {
				if r.fs.PhaseTime(ph) == 0 {
					t.Errorf("phase %v charged nothing", ph)
				}
			}
		})
	}
}

// Remake starts a fresh ledger along with fresh stats.
func TestFSPhasesResetOnRemake(t *testing.T) {
	r := newRig(osprofile.FreeBSD205())
	workload(r.fs)
	r.fs.Remake()
	if got := r.fs.PhaseBreakdown(); got != ([NumPhases]sim.Duration{}) {
		t.Fatalf("phases survived Remake: %v", got)
	}
}

// With a recorder attached the file system emits balanced spans on the
// fs and disk tracks, and observing does not perturb the simulated time.
func TestFSObserveSpans(t *testing.T) {
	plain := newRig(osprofile.FreeBSD205())
	workload(plain.fs)

	r := newRig(osprofile.FreeBSD205())
	rec := obs.NewRecorder(r.clock)
	r.fs.Observe(rec)
	workload(r.fs)

	if r.clock.Now() != plain.clock.Now() {
		t.Fatalf("observing changed timing: %v vs %v", r.clock.Now(), plain.clock.Now())
	}
	if r.fs.rec != rec {
		t.Fatal("Observe did not attach the recorder")
	}

	begins := make(map[string]int)
	depth := 0
	for _, e := range rec.Events() {
		switch e.Kind {
		case obs.EvBegin:
			begins[e.Name]++
			depth++
		case obs.EvEnd:
			depth--
		}
		if depth < 0 {
			t.Fatal("end before begin")
		}
	}
	if depth != 0 {
		t.Fatalf("unbalanced spans: depth %d at stream end", depth)
	}
	for _, name := range []string{"mkdir", "create", "write", "read", "stat", "rename", "unlink", "meta-write", "flush"} {
		if begins[name] == 0 {
			t.Errorf("no %q span recorded", name)
		}
	}
	tracks := rec.Tracks()
	want := map[string]bool{"fs": false, "disk": false}
	for _, tr := range tracks {
		if _, ok := want[tr]; ok {
			want[tr] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("track %q not registered (have %v)", name, tracks)
		}
	}

	// Detaching stops emission.
	n := len(rec.Events())
	r.fs.Observe(nil)
	fl, err := r.fs.Create("/quiet")
	if err != nil {
		t.Fatal(err)
	}
	fl.Close()
	if len(rec.Events()) != n {
		t.Fatal("detached file system still recorded events")
	}
}

// FoldMetrics lands the stats and the phase ledger in a registry, and the
// folded phase microseconds match the ledger.
func TestFSFoldMetrics(t *testing.T) {
	r := newRig(osprofile.Solaris24())
	workload(r.fs)
	reg := obs.NewRegistry()
	r.fs.FoldMetrics(reg, "fs.")
	snap := reg.Snapshot()

	stats := r.fs.Stats()
	if v, ok := snap.Get("fs.creates"); !ok || v != float64(stats.Creates) {
		t.Fatalf("fs.creates = %v, want %d", v, stats.Creates)
	}
	if v, ok := snap.Get("fs.sync_meta_writes"); !ok || v != float64(stats.SyncMetaWrites) {
		t.Fatalf("fs.sync_meta_writes = %v, want %d", v, stats.SyncMetaWrites)
	}
	for ph := Phase(0); ph < NumPhases; ph++ {
		key := "fs.phase_us." + ph.String()
		v, ok := snap.Get(key)
		if !ok || v != r.fs.PhaseTime(ph).Microseconds() {
			t.Fatalf("%s = %v, want %v", key, v, r.fs.PhaseTime(ph).Microseconds())
		}
	}
}

// Fault injection does not break the structural identity: disk latency
// spikes, transient retries, remaps and cache page-steal pressure all
// flow through the tagged charge paths, so the phases still sum to
// elapsed virtual time exactly — and the run remains deterministic.
func TestFSPhaseSumsExactUnderFaults(t *testing.T) {
	plan := &fault.Plan{
		Disk: fault.DiskFaults{
			LatencySpikeProb:   0.2,
			TransientErrorProb: 0.1,
			SlowSectorProb:     0.1,
		},
		Cache: fault.CacheFaults{PageStealProb: 0.05},
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	anyFired := false
	for _, p := range osprofile.All() {
		t.Run(p.String(), func(t *testing.T) {
			run := func() (*rig, sim.Duration, fault.Injectors) {
				r := newRig(p)
				inj := fault.New(plan, sim.NewRNG(99))
				r.fs.SetFaults(inj)
				start := r.clock.Now()
				workload(r.fs)
				return r, r.clock.Now().Sub(start), inj
			}
			r, elapsed, inj := run()
			var sum sim.Duration
			for ph := Phase(0); ph < NumPhases; ph++ {
				sum += r.fs.PhaseTime(ph)
			}
			if sum != elapsed {
				t.Fatalf("faulted phase sum %v != elapsed %v (breakdown %v)",
					sum, elapsed, r.fs.PhaseBreakdown())
			}
			// Disk faults can only fire where the personality actually
			// reaches the disk synchronously; the async-metadata systems
			// legitimately sail through this cached workload untouched.
			fired := inj.Disk.Spikes + inj.Disk.Retries + inj.Disk.Remaps
			if fired > 0 {
				anyFired = true
				clean := newRig(p)
				cleanStart := clean.clock.Now()
				workload(clean.fs)
				if cleanElapsed := clean.clock.Now().Sub(cleanStart); elapsed <= cleanElapsed {
					t.Errorf("faulted run (%v) not slower than clean run (%v)", elapsed, cleanElapsed)
				}
			}
			// Same seed, same plan: bit-identical replay.
			r2, elapsed2, _ := run()
			if elapsed2 != elapsed || r2.fs.PhaseBreakdown() != r.fs.PhaseBreakdown() {
				t.Error("faulted run is not deterministic across replays")
			}
		})
	}
	if !anyFired {
		t.Error("no personality fired a single disk fault; the FFS systems should have")
	}
}
