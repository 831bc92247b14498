package bench

import (
	"fmt"

	"repro/internal/fs"
	"repro/internal/osprofile"
	"repro/internal/sim"
)

// MABConfig describes the Modified Andrew Benchmark workload (§8): a
// source tree, and a compile phase driven by the bundled gcc/binutils.
// The compile work itself is identical on every system (the same compiler
// building the same sources for the same target), so its CPU cost is a
// workload constant; everything else exercises the operating system.
type MABConfig struct {
	// Dirs is the number of directories the tree spreads over.
	Dirs int
	// Files is the number of source files.
	Files int
	// FileKB is the average source file size.
	FileKB int64
	// CompileFiles is how many files the compile phase builds.
	CompileFiles int
	// CompileCPU is the pure-CPU compile time per file (gcc -O on a
	// P54C-100 takes on the order of a second per moderate C file).
	CompileCPU sim.Duration
	// HeaderKB is the header text read per compilation beyond the source.
	HeaderKB int64
	// ObjKB is the object file written per compilation.
	ObjKB int64
	// ProcsPerCompile counts the processes each compilation spawns:
	// driver, cpp, cc1, as.
	ProcsPerCompile int
	// StatPasses is how many times the stat phase walks the tree.
	StatPasses int
}

// DefaultMAB returns the workload sized like the benchmark the paper ran
// (the Andrew tree dimensions with the substituted gcc).
func DefaultMAB() MABConfig {
	return MABConfig{
		Dirs:            12,
		Files:           250,
		FileKB:          12,
		CompileFiles:    45,
		CompileCPU:      880 * sim.Millisecond,
		HeaderKB:        52,
		ObjKB:           14,
		ProcsPerCompile: 4,
		StatPasses:      2,
	}
}

// MABResult reports per-phase and total times.
type MABResult struct {
	// Phase holds the five phase durations: mkdir, copy, stat, read,
	// compile.
	Phase [5]sim.Duration
	// Total is the sum.
	Total sim.Duration
}

// MAB runs the benchmark on a local file system (Table 3).
func MAB(plat Platform, p *osprofile.Profile, cfg MABConfig, seed uint64) MABResult {
	clock := &sim.Clock{}
	rng := sim.NewRNG(seed)
	fsys := fs.MustNew(clock, plat.Disk(rng.Fork(1)), p)
	return MABOn(clock, fsys.AsVFS(), p, cfg)
}

// MABOn runs the benchmark against any VFS — the local file system or an
// NFS mount (Tables 6 and 7). The clock must be the one the VFS charges;
// process-creation and compile CPU are charged to it directly, since they
// are local regardless of where the files live.
func MABOn(clock *sim.Clock, v fs.VFS, p *osprofile.Profile, cfg MABConfig) MABResult {
	w := mabRun{clock: clock, v: v, p: p, cfg: cfg}
	return w.run()
}

type mabRun struct {
	clock *sim.Clock
	v     fs.VFS
	p     *osprofile.Profile
	cfg   MABConfig
}

func (w *mabRun) srcPath(i int) string {
	return fmt.Sprintf("/mab/src/d%d/f%d.c", i%w.cfg.Dirs, i)
}
func (w *mabRun) dstPath(i int) string {
	return fmt.Sprintf("/mab/dst/d%d/f%d.c", i%w.cfg.Dirs, i)
}
func (w *mabRun) objPath(i int) string {
	return fmt.Sprintf("/mab/dst/d%d/f%d.o", i%w.cfg.Dirs, i)
}

func (w *mabRun) mustMkdir(path string) { must(w.v.Mkdir(path)) }

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// setup creates the source tree. It is not part of any timed phase (the
// tree exists before the real benchmark starts) but it does run through
// the same file system, warming it realistically.
func (w *mabRun) setup() {
	w.mustMkdir("/mab")
	w.mustMkdir("/mab/src")
	for d := 0; d < w.cfg.Dirs; d++ {
		w.mustMkdir(fmt.Sprintf("/mab/src/d%d", d))
	}
	for i := 0; i < w.cfg.Files; i++ {
		f, err := w.v.Create(w.srcPath(i))
		must(err)
		f.Write(w.cfg.FileKB << 10)
		f.Close()
	}
}

func (w *mabRun) run() MABResult {
	w.setup()
	var res MABResult

	// Phase 1: directory creation.
	res.Phase[0] = w.timed(func() {
		w.mustMkdir("/mab/dst")
		for d := 0; d < w.cfg.Dirs; d++ {
			w.mustMkdir(fmt.Sprintf("/mab/dst/d%d", d))
		}
	})

	// Phase 2: copy every file.
	res.Phase[1] = w.timed(func() {
		for i := 0; i < w.cfg.Files; i++ {
			src, err := w.v.Open(w.srcPath(i))
			must(err)
			dst, err := w.v.Create(w.dstPath(i))
			must(err)
			for {
				got := src.Read(8 << 10)
				if got == 0 {
					break
				}
				dst.Write(got)
			}
			src.Close()
			dst.Close()
		}
	})

	// Phase 3: recursive stats (du / ls -lR).
	res.Phase[2] = w.timed(func() {
		for pass := 0; pass < w.cfg.StatPasses; pass++ {
			_, err := w.v.Stat("/mab/dst")
			must(err)
			for d := 0; d < w.cfg.Dirs; d++ {
				dir := fmt.Sprintf("/mab/dst/d%d", d)
				_, err := w.v.Stat(dir)
				must(err)
				names, err := w.v.List(dir)
				must(err)
				for _, name := range names {
					_, err := w.v.Stat(dir + "/" + name)
					must(err)
				}
			}
		}
	})

	// Phase 4: read every file (grep through the tree).
	res.Phase[3] = w.timed(func() {
		for i := 0; i < w.cfg.Files; i++ {
			f, err := w.v.Open(w.dstPath(i))
			must(err)
			for f.Read(8<<10) > 0 {
			}
			f.Close()
		}
	})

	// Phase 5: compile. Each compilation forks and execs the driver,
	// preprocessor, compiler proper and assembler; reads the source and
	// headers; burns the (system-independent) compile CPU; and writes the
	// object file.
	k := &w.p.Kernel
	res.Phase[4] = w.timed(func() {
		for i := 0; i < w.cfg.CompileFiles; i++ {
			for pr := 0; pr < w.cfg.ProcsPerCompile; pr++ {
				w.clock.Advance(k.Fork + k.Exec)
			}
			src, err := w.v.Open(w.dstPath(i % w.cfg.Files))
			must(err)
			for src.Read(8<<10) > 0 {
			}
			src.Close()
			// Headers are read in page-sized chunks through the cache.
			hdr, err := w.v.Open(w.srcPath(i % w.cfg.Files))
			must(err)
			for read := int64(0); read < w.cfg.HeaderKB<<10; read += 8 << 10 {
				hdr.SeekTo(0)
				if hdr.Read(8<<10) == 0 {
					break
				}
			}
			hdr.Close()
			w.clock.Advance(w.cfg.CompileCPU)
			obj, err := w.v.Create(w.objPath(i % w.cfg.Files))
			must(err)
			obj.Write(w.cfg.ObjKB << 10)
			obj.Close()
		}
	})

	for _, d := range res.Phase {
		res.Total += d
	}
	return res
}

func (w *mabRun) timed(fn func()) sim.Duration {
	start := w.clock.Now()
	fn()
	return w.clock.Now().Sub(start)
}
