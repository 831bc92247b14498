package bench

import (
	"repro/internal/fs"
	"repro/internal/obs"
	"repro/internal/osprofile"
	"repro/internal/sim"
)

// CrtdelIterations is how many create/delete cycles one run averages
// over.
const CrtdelIterations = 50

// Crtdel measures the mean time of one crtdel iteration at the given file
// size, per §7.2: open (create) a file, write the data, close it; open it
// again, read the data, delete it — a compiler's temporary-file pattern.
func Crtdel(plat Platform, p *osprofile.Profile, fileBytes int64, seed uint64) sim.Duration {
	return (*Scope)(nil).Crtdel(plat, p, fileBytes, seed)
}

// Crtdel is Crtdel observed by s: the Figure 12 decomposition of a
// create/delete cycle into VFS, copy, allocation, metadata-sync,
// disk-read and write-back spans. Disk and cache faults ride the same
// charge paths, so the phase ledger stays exact under injection.
func (s *Scope) Crtdel(plat Platform, p *osprofile.Profile, fileBytes int64, seed uint64) sim.Duration {
	if fileBytes < 0 {
		panic("bench: negative crtdel file size")
	}
	clock := &sim.Clock{}
	fsys := fs.MustNew(clock, plat.Disk(sim.NewRNG(seed).Fork(1)), p)
	if s != nil {
		fsys.SetFaults(s.Faults)
		fsys.Disk().Sample(clock, s.Sampler)
		fsys.Observe(s.trace(clock))
	}
	start := clock.Now()
	for i := 0; i < CrtdelIterations; i++ {
		f, err := fsys.Create("/crtdel.tmp")
		if err != nil {
			panic(err)
		}
		if fileBytes > 0 {
			f.Write(fileBytes)
		}
		f.Close()
		g, err := fsys.Open("/crtdel.tmp")
		if err != nil {
			panic(err)
		}
		if fileBytes > 0 {
			g.Read(fileBytes)
		}
		g.Close()
		if err := fsys.Unlink("/crtdel.tmp"); err != nil {
			panic(err)
		}
	}
	d := clock.Now().Sub(start) / CrtdelIterations
	s.capture(p, clock.Now().Sub(0), func(reg *obs.Registry) {
		fsys.FoldMetrics(reg, "fs.")
		fsys.Disk().Stats().FoldMetrics(reg, "disk.")
	})
	return d
}

// CrtdelSweepSizes returns Figure 12's file sizes: zero bytes through one
// megabyte.
func CrtdelSweepSizes() []int64 {
	return []int64{0, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}
}
