package main

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/memmodel"
	"repro/internal/memo"
	"repro/internal/nfsserver"
	"repro/internal/obs"
	"repro/internal/osprofile"
	"repro/internal/profile"
	"repro/internal/report"
	"repro/internal/sim"
)

// The exhibits' own inputs that internal/core keeps unexported.
var (
	ctxProcCounts = []int{2, 3, 4, 6, 8, 12, 16, 20, 24, 32, 40, 48, 64, 96, 128, 192, 256, 512} // F1
	lockNCPUs     = []int{1, 2, 4, 8, 16}                                                        // L1
	lockCrits     = []sim.Duration{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}                     // L2, µs
	ipcMsgSizes   = []int{64, 256, 1024, 4096, 16384, 65536}                                     // I1
	prefetchDists = []int{0, 2, 4, 8}                                                            // A2 minus F5's distance 1
)

const (
	lockCrit      = 20 * sim.Microsecond // L1's critical section
	lockSweepNCPU = 8                    // L2's machine size
	memoKeyFormat = `{"perfbench":1,"id":%q,"seed":%d}`
)

// pass is one layer pass: every layer's public functions called once
// with the exhibits' inputs, each call timed, and recorded as a span
// when the tracer is set.
type pass struct {
	e    *env
	tr   *tracer
	root int
	cfg  core.Config
	plat bench.Platform
	m    map[string]metric
	// model sums the host time of the calls that re-run the suite's
	// model work layer by layer, for core.unattributed_s.
	model time.Duration
}

// call times fn as one driver call into layer, recorded under parent.
func (p *pass) call(parent int, layer, name string, fn func()) time.Duration {
	sp := p.tr.begin(parent, 0, layer, name)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	p.tr.end(sp)
	return d
}

// group opens a driver span that encloses one layer's calls.
func (p *pass) group(layer string) int { return p.tr.begin(p.root, 0, "driver", layer) }

func (p *pass) set(name string, v float64, unit string) { p.m[name] = metric{v, unit} }

// layerPass runs the pass and returns its per-layer metrics and its wall
// time. tr is nil for the untraced reference pass.
func layerPass(e *env, tr *tracer) (map[string]metric, time.Duration, error) {
	p := &pass{e: e, tr: tr, cfg: suiteConfig(e.seed), plat: bench.PaperPlatform(), m: map[string]metric{}}
	t0 := time.Now()
	p.root = tr.begin(-1, 0, "driver", "layer pass "+e.workload)
	results := p.suite()
	if err := p.memo(results); err != nil {
		return nil, 0, err
	}
	p.memmodel()
	p.kernel()
	p.fs()
	p.net()
	p.nfsserver()
	if err := p.observe(); err != nil {
		return nil, 0, err
	}
	if err := p.serve(); err != nil {
		return nil, 0, err
	}
	tr.end(p.root)
	p.set("core.unattributed_s", p.m["core.busy_s"].Value-p.model.Seconds(), "s")
	return p.m, time.Since(t0), nil
}

// suite runs Runner.RunAll and renders each result, checking the output.
func (p *pass) suite() []*core.Result {
	g := p.group("core")
	exps := core.All()
	var results []*core.Result
	var st *core.RunStats
	p.call(g, "core", "Runner.RunAll", func() {
		results, st = core.NewRunner(p.e.workers).RunAll(p.cfg, exps)
	})
	p.tr.end(g)
	var busy time.Duration
	for _, x := range st.Experiments {
		p.set("core.exp."+x.ID+"_s", x.Wall.Seconds(), "s")
		busy += x.Wall
	}
	p.set("core.busy_s", busy.Seconds(), "s")
	p.set("core.idle_s", (time.Duration(st.Workers)*st.Wall - busy).Seconds(), "s")
	p.set("core.inner_jobs", float64(st.InnerJobs), "count")
	p.set("core.sweep_hits", float64(st.MemoHits), "count")
	p.set("core.sweep_misses", float64(st.MemoMisses), "count")

	g = p.group("report")
	var out bytes.Buffer
	var render time.Duration
	for i, r := range results {
		if i > 0 {
			out.WriteByte('\n')
		}
		render += p.call(g, "report", "report.Render "+r.ID, func() { report.Render(&out, r) })
	}
	p.tr.end(g)
	p.set("report.render_ms", ms(render), "ms")
	checkRunAll(p.e.chk, newRefs(p.e.gold.Exhibits), out.Bytes(), exps)
	return results
}

// memo puts the suite's results into a fresh memo.Store and reads them
// back; every read-back must render byte-identically to the original.
func (p *pass) memo(results []*core.Result) error {
	dir, err := os.MkdirTemp(p.e.dir, "memo-layer-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := memo.OpenStore(dir)
	if err != nil {
		return err
	}
	g := p.group("memo")
	keys := make([][]byte, len(results))
	for i, r := range results {
		keys[i] = []byte(fmt.Sprintf(memoKeyFormat, r.ID, p.e.seed))
		p.e.chk.check(!store.Get(keys[i], new(core.Result)), "memo: %s found in an empty store", r.ID)
	}
	var put, get time.Duration
	for i, r := range results {
		var err error
		put += p.call(g, "memo", "Store.Put "+r.ID, func() { err = store.Put(keys[i], r) })
		if err != nil {
			return err
		}
	}
	for i, r := range results {
		got := new(core.Result)
		var hit bool
		get += p.call(g, "memo", "Store.Get "+r.ID, func() { hit = store.Get(keys[i], got) })
		var want, back bytes.Buffer
		report.Render(&want, r)
		if hit {
			report.Render(&back, got)
		}
		p.e.chk.check(hit && bytes.Equal(want.Bytes(), back.Bytes()), "memo: %s does not round-trip", r.ID)
	}
	p.tr.end(g)
	var size int64
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		size += info.Size()
		return nil
	})
	if err != nil {
		return err
	}
	st := store.Stats()
	p.set("memo.put_ms", ms(put), "ms")
	p.set("memo.get_ms", ms(get), "ms")
	p.set("memo.entry_kb", float64(size)/1024/float64(len(results)), "KB")
	p.set("memo.hits", float64(st.Hits), "count")
	p.set("memo.misses", float64(st.Misses), "count")
	p.set("memo.stale", float64(st.Stale), "count")
	p.set("memo.puts", float64(st.Puts), "count")
	return nil
}

// memmodel times memmodel.SweepPoint over the F2–F8, A1 and A2 grids
// (points the suite memo shares counted once) and takes the cache traffic
// of each point from Model.ObservedBandwidth, which must agree with the
// fast path bit for bit.
func (p *pass) memmodel() {
	type grid struct {
		cfg  cache.Config
		r    memmodel.Routine
		dist int
	}
	var grids []grid
	for _, r := range []memmodel.Routine{memmodel.CustomRead, memmodel.Memset, memmodel.NaiveWrite,
		memmodel.PrefetchWrite, memmodel.LibcMemcpy, memmodel.NaiveCopy, memmodel.PrefetchCopy} {
		grids = append(grids, grid{cache.PentiumConfig(), r, memmodel.DefaultPrefetchDistance})
	}
	wa := cache.PentiumConfig()
	wa.WriteAllocate = true
	grids = append(grids, grid{wa, memmodel.Memset, memmodel.DefaultPrefetchDistance},
		grid{wa, memmodel.LibcMemcpy, memmodel.DefaultPrefetchDistance})
	for _, d := range prefetchDists {
		grids = append(grids, grid{cache.PentiumConfig(), memmodel.PrefetchWrite, d})
	}
	g := p.group("memmodel")
	var pts []float64
	var busy time.Duration
	var accesses, l2miss uint64
	for _, gr := range grids {
		for _, size := range bench.MemSweepSizes() {
			var mbs float64
			d := p.call(g, "memmodel", "SweepPoint", func() {
				mbs = memmodel.SweepPoint(p.plat.CPU, gr.cfg, gr.r, gr.dist, size)
			})
			pts = append(pts, ms(d))
			busy += d
			var o memmodel.ObservedPoint
			p.call(g, "cache", "Model.ObservedBandwidth", func() {
				m := memmodel.NewModel(p.plat.CPU, gr.cfg)
				m.PrefetchDistance = gr.dist
				o = m.ObservedBandwidth(gr.r, size)
			})
			accesses += o.Stats.L1Hits + o.Stats.L1Misses
			l2miss += o.Stats.L2Misses
			p.e.chk.check(o.MBs == mbs, "memmodel %v size %d: observed %v MB/s, fast path %v", gr.r, size, o.MBs, mbs)
		}
	}
	p.tr.end(g)
	p.model += busy
	s := sortedCopy(pts)
	p.set("memmodel.points", float64(len(pts)), "count")
	p.set("memmodel.point_p50_ms", quantile(s, 0.5), "ms")
	p.set("memmodel.point_p99_ms", quantile(s, 0.99), "ms")
	p.set("memmodel.busy_s", busy.Seconds(), "s")
	p.set("cache.accesses", float64(accesses), "count")
	p.set("cache.l2_misses", float64(l2miss), "count")
	p.set("cache.ns_per_access", float64(busy)/float64(max(accesses, 1)), "ns")
}

// timed runs fn over every paper personality as calls into layer and
// returns their summed host time, which also counts toward p.model.
func (p *pass) timed(g int, layer, name string, fn func(prof *osprofile.Profile)) time.Duration {
	var sum time.Duration
	for _, prof := range p.cfg.Profiles {
		sum += p.call(g, layer, name+" "+prof.Name, func() { fn(prof) })
	}
	p.model += sum
	return sum
}

// kernel times the kernel benchmarks with T2, F1, T4, I1 and L1/L2's
// inputs. Switch counts come from the SMP machines core.LockPoint runs.
func (p *pass) kernel() {
	g := p.group("kernel")
	getpid := p.timed(g, "kernel", "bench.Getpid", func(prof *osprofile.Profile) { bench.Getpid(p.plat, prof) })
	ctx := p.timed(g, "kernel", "bench.Ctx", func(prof *osprofile.Profile) {
		orders := []bench.CtxOrder{bench.CtxRing}
		if prof.Kernel.Scheduler == osprofile.SchedPreemptiveMT {
			orders = append(orders, bench.CtxLIFO)
		}
		for _, o := range orders {
			for _, n := range ctxProcCounts {
				bench.Ctx(p.plat, prof, n, o)
			}
		}
	})
	pipe := p.timed(g, "kernel", "bench.BwPipe+IPCPipe", func(prof *osprofile.Profile) {
		bench.BwPipe(p.plat, prof)
		for _, msg := range ipcMsgSizes {
			bench.IPCPipe(p.plat, prof, msg, bench.IPCTotalBytes)
		}
	})
	var switches uint64
	lock := p.timed(g, "kernel", "core.LockPoint", func(prof *osprofile.Profile) {
		for _, k := range []kernel.LockKind{kernel.SpinLock, kernel.SleepLock} {
			for _, n := range lockNCPUs {
				switches += core.LockPoint(prof, k, n, lockCrit).Machine.Switches()
			}
			for _, c := range lockCrits {
				switches += core.LockPoint(prof, k, lockSweepNCPU, c*sim.Microsecond).Machine.Switches()
			}
		}
	})
	p.tr.end(g)
	p.set("kernel.getpid_ms", ms(getpid), "ms")
	p.set("kernel.ctx_ms", ms(ctx), "ms")
	p.set("kernel.pipe_ms", ms(pipe), "ms")
	p.set("kernel.lock_ms", ms(lock), "ms")
	p.set("kernel.switches", float64(switches), "count")
	p.set("kernel.ns_per_switch", float64(lock)/float64(max(switches, 1)), "ns")
}

// fs times the file-system benchmarks with T3, F9–F11 and F12's inputs.
func (p *pass) fs() {
	g := p.group("fs")
	seed := p.e.seed
	mab := p.timed(g, "fs", "bench.MAB", func(prof *osprofile.Profile) { bench.MAB(p.plat, prof, bench.DefaultMAB(), seed) })
	bonnie := p.timed(g, "fs", "bench.Bonnie", func(prof *osprofile.Profile) {
		for i, mb := range bench.BonnieSweepSizes() {
			bench.Bonnie(p.plat, prof, mb, seed+uint64(i))
		}
	})
	crtdel := p.timed(g, "fs", "bench.Crtdel", func(prof *osprofile.Profile) {
		for i, b := range bench.CrtdelSweepSizes() {
			bench.Crtdel(p.plat, prof, b, seed+uint64(i))
		}
	})
	p.tr.end(g)
	p.set("fs.mab_ms", ms(mab), "ms")
	p.set("fs.bonnie_ms", ms(bonnie), "ms")
	p.set("fs.crtdel_ms", ms(crtdel), "ms")
}

// net times the network benchmarks with T5, F13, I1 and T6/T7's inputs.
func (p *pass) net() {
	g := p.group("netstack")
	tcp := p.timed(g, "netstack", "bench.BwTCP", func(prof *osprofile.Profile) { bench.BwTCP(prof, 0) })
	udp := p.timed(g, "netstack", "bench.TTCP", func(prof *osprofile.Profile) {
		for _, size := range bench.TTCPSweepSizes() {
			bench.TTCP(prof, size)
		}
	})
	sock := p.timed(g, "netstack", "bench.IPCSocket", func(prof *osprofile.Profile) {
		for _, msg := range ipcMsgSizes {
			bench.IPCSocket(prof, msg, bench.IPCTotalBytes, nil)
		}
	})
	p.tr.end(g)
	g = p.group("nfs")
	nfs := p.timed(g, "nfs", "bench.MABNFS", func(prof *osprofile.Profile) {
		for _, k := range []bench.NFSServerKind{bench.ServerLinux, bench.ServerSunOS} {
			bench.MABNFS(prof, k, bench.DefaultMAB(), p.e.seed)
		}
	})
	p.tr.end(g)
	p.set("netstack.tcp_ms", ms(tcp), "ms")
	p.set("netstack.udp_ms", ms(udp), "ms")
	p.set("netstack.ipc_socket_ms", ms(sock), "ms")
	p.set("nfs.mab_ms", ms(nfs), "ms")
}

// nfsserver times the 18 scale points through core.ScaleRun and checks
// each one as the scale-1m workload does.
func (p *pass) nfsserver() {
	g := p.group("nfsserver")
	ref := newRefs(p.e.gold.Scale)
	var pts []float64
	var busy time.Duration
	var attempts, completed uint64
	for _, prof := range p.cfg.Profiles {
		for _, n := range scaleClients {
			var r *nfsserver.Result
			d := p.call(g, "nfsserver", fmt.Sprintf("core.ScaleRun %s %d", prof.Name, n), func() {
				r = core.ScaleRun(p.cfg, prof, n, scaleNfsd, nil)
			})
			pts = append(pts, ms(d))
			busy += d
			attempts += r.Attempts
			completed += r.Completed
			checkScalePoint(p.e.chk, ref, scalePointKey(prof, n), r)
		}
	}
	p.tr.end(g)
	p.model += busy
	s := sortedCopy(pts)
	p.set("nfsserver.point_p50_ms", quantile(s, 0.5), "ms")
	p.set("nfsserver.point_max_ms", s[len(s)-1], "ms")
	p.set("nfsserver.busy_s", busy.Seconds(), "s")
	p.set("nfsserver.attempts", float64(attempts), "count")
	p.set("nfsserver.completed", float64(completed), "count")
	p.set("nfsserver.ns_per_attempt", float64(busy)/float64(max(attempts, 1)), "ns")
}

// observe times the S1 probe plain, with the time-series sampler and
// with exemplar reservoirs, then the exports and the audit built on it.
func (p *pass) observe() error {
	g := p.group("observe")
	runner := core.NewRunner(p.e.workers)
	var plain *core.SuiteObservation
	variants := []core.ObserveOpts{{}, {Window: 100 * sim.Millisecond}, {ExemplarK: 4}}
	names := []string{"core.observe_ms", "obs.sampler_ms", "obs.exemplar_ms"}
	for i, opts := range variants {
		var s *core.SuiteObservation
		var err error
		d := p.call(g, "observe", "Runner.Observe S1 "+names[i], func() {
			s, err = runner.Observe(p.cfg, []string{"S1"}, opts)
		})
		if err != nil {
			return err
		}
		if i == 0 {
			plain = s
		}
		p.set(names[i], ms(d), "ms")
	}
	var werr error
	chrome := p.call(g, "obs", "obs.WriteChrome", func() { werr = obs.WriteChrome(io.Discard, plain.Processes) })
	if werr != nil {
		return werr
	}
	fold := p.call(g, "profile", "profile.Fold", func() { profile.Fold(plain.Processes...) })
	var ao *core.AuditObservation
	audit := p.call(g, "audit", "core.Audit S1", func() { ao, werr = core.Audit(p.cfg, "S1", core.ObserveOpts{}) })
	if werr != nil {
		return werr
	}
	p.tr.end(g)
	p.e.chk.check(ao.OK(), "audit S1: invariants violated")
	p.set("obs.chrome_ms", ms(chrome), "ms")
	p.set("profile.fold_ms", ms(fold), "ms")
	p.set("audit.evaluate_ms", ms(audit), "ms")
	return nil
}

// layerWarmSeconds is the open-loop sample the layer pass takes of the
// warm serve path.
const layerWarmSeconds = 1.0

// serve starts a fresh server, times its cold endpoints, then samples the
// warm replay path open-loop and closed-loop.
func (p *pass) serve() error {
	g := p.group("serve")
	var s *server
	var err error
	p.call(g, "serve", "cli serve start", func() { s, err = startServer(p.e.seed, p.e.workers) })
	if err != nil {
		return err
	}
	defer s.close()
	cold, lats := coldPhase(s, p.e.chk, newRefs(p.e.gold.Serve), p.tr, g)
	for i, ep := range coldEndpoints {
		p.set("serve.cold."+strings.ReplaceAll(ep, "/", ".")+"_ms", ms(lats[i]), "ms")
	}
	sched := makeSchedule(p.e.seed, int(warmRate*layerWarmSeconds))
	warm := drive(s, sched, true, p.e.chk, cold, p.tr, g)
	t0 := time.Now()
	closed := drive(s, sched[:closedRequests], false, p.e.chk, cold, p.tr, g)
	closedWall := time.Since(t0)
	p.tr.end(g)
	var hits, revals, late []float64
	bytesSum := 0
	for _, o := range warm {
		switch o.status {
		case 200:
			hits = append(hits, ms(o.lat))
		case 304:
			revals = append(revals, ms(o.lat))
		}
		late = append(late, ms(o.late))
		bytesSum += o.bytes
	}
	closedBytes := 0
	for _, o := range closed {
		closedBytes += o.bytes
	}
	p.set("serve.hit_p50_ms", median(hits), "ms")
	p.set("serve.revalidate_p50_ms", median(revals), "ms")
	p.set("serve.bytes_per_req", float64(bytesSum)/float64(len(warm)), "B")
	p.set("serve.not_modified_ratio", float64(len(revals))/float64(len(warm)), "fraction")
	p.set("serve.gen_late_p99_ms", quantile(sortedCopy(late), 0.99), "ms")
	p.set("serve.requests", float64(len(warm)+len(closed)), "count")
	p.set("serve.closed_mb_s", float64(closedBytes)/1e6/closedWall.Seconds(), "MB/s")
	return nil
}

// runTraced is the --trace 1 run: layer passes alternate untraced and
// traced (swapping which goes first each pair) until --seconds pass. The
// per-layer metrics are medians over the traced passes; the overhead
// compares the two kinds' median pass wall times.
func runTraced(e *env) (map[string]metric, error) {
	tr := newTracer()
	var plain, traced []float64
	samples := map[string][]float64{}
	units := map[string]string{}
	start := time.Now()
	for n := 0; n == 0 || time.Since(start).Seconds() < e.seconds; n++ {
		for k := range 2 {
			on := (k+n)%2 == 1
			var t *tracer
			if on {
				t, tr.run = tr, n
			}
			m, d, err := layerPass(e, t)
			if err != nil {
				return nil, err
			}
			if !on {
				plain = append(plain, d.Seconds())
				continue
			}
			traced = append(traced, d.Seconds())
			for name, v := range m {
				samples[name] = append(samples[name], v.Value)
				units[name] = v.Unit
			}
		}
	}
	out := make(map[string]metric, len(samples)+1)
	for name, vs := range samples {
		out[name] = metric{median(vs), units[name]}
	}
	overhead := 100 * (median(traced) - median(plain)) / median(plain)
	out["bench.trace_overhead_pct"] = metric{overhead, "%"}
	printSummary(e.out, "layer_pass_s (untraced)", "s", plain)
	printSummary(e.out, "layer_pass_s (traced)", "s", traced)
	fmt.Fprintf(e.out, "bench.trace_overhead_pct %.2f %% over %d spans\n", overhead, len(tr.spans))
	for _, lt := range selfTimes(tr.spans) {
		fmt.Fprintf(e.out, "self %-10s %9.1f ms of %9.1f ms over %d spans\n",
			lt.layer, ms(lt.self)/float64(len(traced)), ms(lt.total)/float64(len(traced)), lt.spans)
	}
	path, err := saveTrace(e, tr.spans)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(e.out, "chrome trace:", path)
	return out, nil
}
