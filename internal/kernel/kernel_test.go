package kernel

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/osprofile"
	"repro/internal/sim"
)

func newLinux() *Machine   { return MustMachine(osprofile.Linux128(), 1) }
func newFreeBSD() *Machine { return MustMachine(osprofile.FreeBSD205(), 1) }
func newSolaris() *Machine { return MustMachine(osprofile.Solaris24(), 1) }

func write(p *Pipe, n int) Op { return Op{Kind: OpWrite, P: p, N: n} }
func read(p *Pipe, n int) Op  { return Op{Kind: OpRead, P: p, N: n} }

// think is a short compute op, for programs that only need to run.
var think = Op{Kind: OpThink, D: sim.Microsecond}

// instants returns the narration instants of an observed run.
func instants(rec *obs.Recorder) []obs.Event {
	var out []obs.Event
	for _, e := range rec.Events() {
		if e.Kind == obs.EvInstant {
			out = append(out, e)
		}
	}
	return out
}

// firstInstant returns the index of the first instant of the given kind
// (and pid, when pid > 0), or -1.
func firstInstant(events []obs.Event, kind string, pid int) int {
	for i, e := range events {
		if e.Name == kind && (pid == 0 || e.PID == pid) {
			return i
		}
	}
	return -1
}

func TestGetpidChargesSyscall(t *testing.T) {
	m := newLinux()
	th := m.SpawnThread("getpid", []Op{{Kind: OpSyscall}}, 1000)
	elapsed := m.Run()
	if th.tid == 0 {
		t.Fatal("thread has TID 0")
	}
	// The single initial dispatch is the only other charge; the goodness
	// scan examined the one live task.
	k := &m.os.Kernel
	if want := k.CtxBase + k.CtxPerTask; th.FirstRun.Sub(0) != want {
		t.Fatalf("first run at %v, want the one dispatch %v", th.FirstRun.Sub(0), want)
	}
	want := sim.Duration(1000 * int64(k.Syscall))
	if got := elapsed - th.FirstRun.Sub(0); got != want {
		t.Fatalf("1000 getpids took %v, want %v", got, want)
	}
}

func TestProcsRunToCompletion(t *testing.T) {
	m := newLinux()
	var threads []*Thread
	for i := 0; i < 5; i++ {
		threads = append(threads, m.SpawnThread("worker", []Op{think}, 1))
	}
	m.Run()
	for i, th := range threads {
		if th.Iters != 1 || th.Retired == 0 {
			t.Fatalf("thread %d never ran to completion (iters %d)", i, th.Iters)
		}
	}
}

func TestPIDsAreUnique(t *testing.T) {
	m := newLinux()
	a := m.SpawnThread("a", []Op{think}, 1)
	b := m.SpawnThread("b", []Op{think}, 1)
	if a.tid == b.tid {
		t.Fatal("duplicate PIDs")
	}
	if a.name != "a" || b.name != "b" {
		t.Fatal("names not preserved")
	}
	m.Run()
}

func TestPipeTransfersData(t *testing.T) {
	m := newLinux()
	pipe := m.NewPipe()
	m.SpawnThread("writer", []Op{write(pipe, 10000)}, 1)
	reader := m.SpawnThread("reader", []Op{read(pipe, 10000)}, 1)
	m.Run()
	if reader.Iters != 1 {
		t.Fatal("reader did not finish its read")
	}
	if pipe.BytesTransferred != 10000 {
		t.Fatalf("BytesTransferred = %d, want 10000", pipe.BytesTransferred)
	}
	if pipe.Buffered() != 0 {
		t.Fatalf("pipe left %d bytes buffered", pipe.Buffered())
	}
}

func TestPipeBlocksWriterAtCapacity(t *testing.T) {
	m := newLinux()
	rec := obs.NewRecorder(nil)
	m.Observe(rec)
	pipe := m.NewPipe()
	cap := pipe.capacity
	// The first write fits exactly; the second must block until the
	// reader drains.
	writer := m.SpawnThread("writer", []Op{write(pipe, cap), write(pipe, 1)}, 1)
	reader := m.SpawnThread("reader", []Op{read(pipe, cap+1)}, 1)
	m.Run()
	ev := instants(rec)
	block := firstInstant(ev, "block", writer.tid)
	if block < 0 || block > firstInstant(ev, "dispatch", reader.tid) {
		t.Fatalf("writer did not block at capacity before the reader ran: %v", ev)
	}
	if pipe.BytesTransferred != uint64(cap+1) || reader.Retired < writer.Retired {
		t.Fatalf("transfer incomplete: %d bytes, reader retired %v, writer %v",
			pipe.BytesTransferred, reader.Retired, writer.Retired)
	}
}

func TestPipeReadBlocksUntilData(t *testing.T) {
	m := newLinux()
	rec := obs.NewRecorder(nil)
	m.Observe(rec)
	pipe := m.NewPipe()
	reader := m.SpawnThread("reader", []Op{read(pipe, 42)}, 1)
	writer := m.SpawnThread("writer", []Op{write(pipe, 42)}, 1)
	m.Run()
	ev := instants(rec)
	if block := firstInstant(ev, "block", reader.tid); block < 0 || block > firstInstant(ev, "pipe-write", writer.tid) {
		t.Fatalf("reader did not block on the empty pipe before the write: %v", ev)
	}
	if i := firstInstant(ev, "pipe-read", reader.tid); i < 0 || ev[i].Detail != "42 bytes (buffered 0)" {
		t.Fatalf("read did not take the 42 available bytes: %v", ev)
	}
}

func TestTokenRingPasses(t *testing.T) {
	// A miniature ctx ring: 4 processes, 100 laps.
	m := newFreeBSD()
	const nproc, laps = 4, 100
	pipes := make([]*Pipe, nproc)
	for i := range pipes {
		pipes[i] = m.NewPipe()
	}
	var threads []*Thread
	for i := 0; i < nproc; i++ {
		ops := []Op{read(pipes[i], 1), write(pipes[(i+1)%nproc], 1)}
		if i == 0 {
			ops = []Op{write(pipes[1], 1), read(pipes[0], 1)} // collect the final token
		}
		threads = append(threads, m.SpawnThread("ring", ops, laps))
	}
	m.Run()
	for i, th := range threads {
		if th.Iters != laps {
			t.Fatalf("process %d passed token %d times, want %d", i, th.Iters, laps)
		}
	}
	if m.Switches() == 0 {
		t.Fatal("ring ran with no context switches")
	}
}

// pick is one dispatch decision without its charges: the next queued
// thread and what picking it costs.
func pick(m *Machine) (*Thread, pickCost) {
	th, _ := m.takeQueued(0)
	if th == nil {
		return nil, pickCost{}
	}
	th.state = sRunning
	return th, m.pickCost(th)
}

func TestLinuxSwitchCostGrowsWithProcs(t *testing.T) {
	// §5: Linux context switch time increases linearly with active
	// processes: the goodness scan examines every live task, so the pick
	// cost scales with the task count.
	costAt := func(n int) sim.Duration {
		m := newLinux()
		for i := 0; i < n; i++ {
			m.SpawnThread("idle", []Op{think}, 1)
		}
		next, cost := pick(m)
		if next == nil {
			t.Fatal("nothing runnable")
		}
		if cost.scanned != n {
			t.Fatalf("scan examined %d tasks, want all %d", cost.scanned, n)
		}
		return m.switchCost(cost)
	}
	c2, c20, c40 := costAt(2), costAt(20), costAt(40)
	if !(c2 < c20 && c20 < c40) {
		t.Fatalf("Linux switch cost not increasing: %v %v %v", c2, c20, c40)
	}
	// Linearity: the 20→40 increment is ~the 2→20 increment scaled.
	d1 := int64(c20 - c2)  // 18 tasks
	d2 := int64(c40 - c20) // 20 tasks
	perTask1 := d1 / 18
	perTask2 := d2 / 20
	if perTask1 != perTask2 {
		t.Fatalf("per-task cost not constant: %v vs %v", perTask1, perTask2)
	}
}

func TestFreeBSDSwitchCostFlat(t *testing.T) {
	costAt := func(n int) sim.Duration {
		m := newFreeBSD()
		for i := 0; i < n; i++ {
			m.SpawnThread("idle", []Op{think}, 1)
		}
		_, cost := pick(m)
		if cost.scanned != 0 {
			t.Fatalf("bitmap queues scanned %d tasks; pick must be constant-time", cost.scanned)
		}
		return m.switchCost(cost)
	}
	if costAt(2) != costAt(200) {
		t.Fatal("FreeBSD switch cost must not depend on process count (§5)")
	}
}

func TestSchedulerPickOrderFIFO(t *testing.T) {
	// All three structures preserve ready order for equal priorities, so
	// benchmark interleavings are identical across personalities.
	for _, mk := range []func() *Machine{newLinux, newFreeBSD, newSolaris} {
		m := mk()
		var threads []*Thread
		for i := 0; i < 4; i++ {
			threads = append(threads, m.SpawnThread("w", []Op{think}, 1))
		}
		m.Run()
		for i := 1; i < len(threads); i++ {
			if threads[i].FirstRun <= threads[i-1].FirstRun {
				t.Fatalf("%v: thread %d ran at %v, not after thread %d at %v",
					m.os, i, threads[i].FirstRun, i-1, threads[i-1].FirstRun)
			}
		}
	}
}

func TestSolarisTableOverflowAt32(t *testing.T) {
	// Figure 1: cycling through more than 32 processes misses the mapping
	// resource on every dispatch; at or under 32 it always hits.
	missRate := func(nproc int) float64 {
		tbl := newLRUTable(32)
		misses, total := 0, 0
		// Warm up one full cycle, then measure.
		for lap := 0; lap < 10; lap++ {
			for id := 0; id < nproc; id++ {
				hit := tbl.touch(id)
				if lap > 0 {
					total++
					if !hit {
						misses++
					}
				}
			}
		}
		return float64(misses) / float64(total)
	}
	if r := missRate(32); r != 0 {
		t.Errorf("32-process cyclic miss rate = %v, want 0", r)
	}
	if r := missRate(33); r != 1 {
		t.Errorf("33-process cyclic miss rate = %v, want 1 (LRU cyclic thrash)", r)
	}
}

func TestSolarisLIFOChainGradual(t *testing.T) {
	// Figure 1: the LIFO chain pattern degrades gradually between 32 and
	// ~64 processes because turnaround locality keeps part of the working
	// set resident.
	missRate := func(nproc int) float64 {
		tbl := newLRUTable(32)
		misses, total := 0, 0
		for lap := 0; lap < 10; lap++ {
			// 0,1,...,n-1,n-2,...,1 — one LIFO round trip.
			seq := make([]int, 0, 2*nproc)
			for i := 0; i < nproc; i++ {
				seq = append(seq, i)
			}
			for i := nproc - 2; i >= 1; i-- {
				seq = append(seq, i)
			}
			for _, id := range seq {
				hit := tbl.touch(id)
				if lap > 0 {
					total++
					if !hit {
						misses++
					}
				}
			}
		}
		return float64(misses) / float64(total)
	}
	r40, r64, r128 := missRate(40), missRate(64), missRate(128)
	if !(r40 > 0 && r40 < 1) {
		t.Errorf("LIFO chain at 40 procs should partially hit, got miss rate %v", r40)
	}
	if !(r40 < r64 || r64 < r128) {
		t.Errorf("LIFO miss rate should grow: %v %v %v", r40, r64, r128)
	}
}

// TestDeadlockPanics pins the failure mode: a reader on a pipe nobody
// writes blocks forever, and Run panics with a *sim.DeadlockError.
func TestDeadlockPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run did not panic on deadlock")
		}
		if _, ok := r.(*sim.DeadlockError); !ok {
			t.Fatalf("panic value %v (%T), want *sim.DeadlockError", r, r)
		}
	}()
	m := newLinux()
	pipe := m.NewPipe()
	m.SpawnThread("stuck", []Op{read(pipe, 1)}, 1)
	m.Run()
}

// runChecked runs m the way App.recovered does: a deadlock panic comes
// back as its *sim.DeadlockError, any other panic propagates.
func runChecked(m *Machine) (err error) {
	defer func() {
		if r := recover(); r != nil {
			d, ok := r.(*sim.DeadlockError)
			if !ok {
				panic(r)
			}
			err = d
		}
	}()
	m.Run()
	return nil
}

// TestRunCheckedSurfacesDeadlockError holds that a recovered deadlock
// names the blocked thread, carries the virtual time, and — since the
// run is observed — a dump of each track's last activity.
func TestRunCheckedSurfacesDeadlockError(t *testing.T) {
	m := newLinux()
	rec := obs.NewRecorder(nil)
	m.Observe(rec)
	pipe := m.NewPipe()
	m.SpawnThread("stuck-reader", []Op{read(pipe, 1)}, 1)
	m.SpawnThread("worker", []Op{{Kind: OpThink, D: 2 * sim.Millisecond}}, 1)

	err := runChecked(m)
	if err == nil {
		t.Fatal("a deadlocked run surfaced no error")
	}
	var d *sim.DeadlockError
	if !errors.As(err, &d) {
		t.Fatalf("surfaced %T, want *sim.DeadlockError", err)
	}
	if len(d.Blocked) != 1 || !strings.Contains(d.Blocked[0], "stuck-reader") {
		t.Errorf("Blocked = %v, want the stuck reader", d.Blocked)
	}
	if d.Now == 0 {
		t.Error("deadlock carries no virtual timestamp")
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("error line %q does not say deadlock", err)
	}
	if !strings.Contains(d.Dump, "last activity per track") ||
		!strings.Contains(d.Dump, "stuck-reader") {
		t.Errorf("dump missing track activity:\n%s", d.Dump)
	}
}

func TestChargeAccumulatesUserTime(t *testing.T) {
	m := newLinux()
	work := Op{Kind: OpThink, D: 5 * sim.Millisecond}
	th := m.SpawnThread("worker", []Op{work, work}, 1)
	m.Run()
	if th.UserTime != 10*sim.Millisecond || m.PhaseTime(PhaseUser) != 10*sim.Millisecond {
		t.Fatalf("UserTime = %v (phase %v), want 10ms", th.UserTime, m.PhaseTime(PhaseUser))
	}
}

func TestForkExecCosts(t *testing.T) {
	m := newSolaris()
	m.SpawnThread("parent", []Op{{Kind: OpFork}, {Kind: OpExec}}, 1)
	elapsed := m.Run()
	k := m.os.Kernel
	want := k.Fork + k.Exec
	if elapsed < want || m.PhaseTime(PhaseProcess) != want {
		t.Fatalf("fork+exec advanced %v (process phase %v), want at least %v", elapsed, m.PhaseTime(PhaseProcess), want)
	}
}

func TestYieldTimeslice(t *testing.T) {
	m := newFreeBSD()
	a := m.SpawnThread("a", []Op{think, {Kind: OpYield}, think}, 1)
	b := m.SpawnThread("b", []Op{think}, 1)
	m.Run()
	// a runs first, yields to b, and finishes after b.
	if !(a.FirstRun < b.FirstRun && b.Retired < a.Retired) {
		t.Fatalf("a ran %v..%v, b %v..%v; want a, then b, then a",
			a.FirstRun, a.Retired, b.FirstRun, b.Retired)
	}
}

func TestPipePanicsOnBadSizes(t *testing.T) {
	m := newLinux()
	pipe := m.NewPipe()
	defer func() {
		if recover() == nil {
			t.Error("a zero-length write did not panic")
		}
	}()
	m.SpawnThread("bad", []Op{write(pipe, 0)}, 1)
}

func TestDeterministicMultiProcessRun(t *testing.T) {
	run := func() sim.Duration {
		m := newSolaris()
		pipe := m.NewPipe()
		m.SpawnThread("w", []Op{write(pipe, 3000)}, 50)
		m.SpawnThread("r", []Op{read(pipe, 150000)}, 1)
		return m.Run()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("multi-process run not deterministic: %v vs %v", a, b)
	}
}

// TestTraceRecordsTimeline holds that an observed run narrates every
// kernel event class as an instant on the kernel track, in time order.
func TestTraceRecordsTimeline(t *testing.T) {
	m := newSolaris()
	rec := obs.NewRecorder(nil)
	m.Observe(rec)
	pipe := m.NewPipe()
	m.SpawnThread("w", []Op{write(pipe, 1)}, 1)
	m.SpawnThread("r", []Op{read(pipe, 1)}, 1)
	m.Run()
	events := instants(rec)
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	kinds := map[string]int{}
	var last sim.Time
	for _, e := range events {
		kinds[e.Name]++
		if e.When < last {
			t.Fatal("trace out of time order")
		}
		last = e.When
		if rec.Tracks()[e.Track] != "kernel" {
			t.Fatalf("instant %+v off the kernel track", e)
		}
	}
	for _, want := range []string{"spawn", "dispatch", "pipe-write", "pipe-read", "exit"} {
		if kinds[want] == 0 {
			t.Errorf("no %q events: %v", want, kinds)
		}
	}
}

// ringAllocs counts the allocations of one unobserved nproc-process
// token-ring run of the given laps.
func ringAllocs(laps int) float64 {
	return testing.AllocsPerRun(3, func() {
		m := newLinux()
		p0, p1 := m.NewPipe(), m.NewPipe()
		m.SpawnThread("ring", []Op{write(p1, 1), read(p0, 1)}, laps)
		m.SpawnThread("ring", []Op{read(p1, 1), write(p0, 1)}, laps)
		m.Run()
	})
}

// TestTraceOffByDefault holds that an unobserved machine narrates
// nothing: no recorder, and no per-event formatting — a pipe ring
// allocates the same at 1,000 and 10,000 laps.
func TestTraceOffByDefault(t *testing.T) {
	if newLinux().rec != nil {
		t.Fatal("a fresh machine has a recorder attached")
	}
	if a, b := ringAllocs(1_000), ringAllocs(10_000); a != b {
		t.Fatalf("unobserved ring allocates %v objects at 1,000 laps and %v at 10,000", a, b)
	}
}

// TestRunQueueReusesBackingArray holds that dispatching never grows the
// run queue: a two-thread yield ring allocates the same number of
// objects at 1,000 and at 10,000 laps.
func TestRunQueueReusesBackingArray(t *testing.T) {
	for _, p := range osprofile.Paper() {
		allocs := func(laps int) float64 {
			return testing.AllocsPerRun(3, func() {
				m := MustMachine(p, 1)
				m.SpawnThread("yielder", []Op{{Kind: OpYield}}, laps)
				m.SpawnThread("yielder", []Op{{Kind: OpYield}}, laps)
				m.Run()
			})
		}
		if a, b := allocs(1_000), allocs(10_000); a != b {
			t.Errorf("%s: yield ring allocates %v objects at 1,000 laps and %v at 10,000", p, a, b)
		}
	}
}

// TestTraceLimitBounds holds that a ring recorder bounds the kernel's
// narration however long the run.
func TestTraceLimitBounds(t *testing.T) {
	m := newLinux()
	rec := obs.NewRing(nil, 5)
	m.Observe(rec)
	for i := 0; i < 20; i++ {
		m.SpawnThread("w", nil, 1)
	}
	m.Run()
	if got := len(rec.Events()); got > 5 {
		t.Fatalf("trace kept %d events, limit 5", got)
	}
}

func TestTraceRingDropsOldest(t *testing.T) {
	m := newLinux()
	rec := obs.NewRing(nil, 5)
	m.Observe(rec)
	for i := 0; i < 20; i++ {
		m.SpawnThread("w", nil, 1)
	}
	m.Run()
	events := rec.Events()
	if len(events) != 5 || rec.Dropped() == 0 {
		t.Fatalf("ring kept %d events (%d dropped), want exactly 5 and drops", len(events), rec.Dropped())
	}
	// With 20 spawns then 20 dispatch/exit pairs, the survivors must be
	// the newest events: in time order, the last instant an exit, and
	// none of the early spawn events still present.
	var last sim.Time
	for i, e := range events {
		if e.When < last {
			t.Fatalf("ring out of time order at %d: %v", i, events)
		}
		last = e.When
		if e.Name == "spawn" {
			t.Errorf("oldest events (spawn) not dropped: %v", events)
		}
	}
	if in := instants(rec); len(in) == 0 || in[len(in)-1].Name != "exit" {
		t.Errorf("newest surviving instant is not an exit: %v", events)
	}
}

// TestPhaseSumsEqualElapsed holds the attribution identity: every clock
// advance a uniprocessor makes is tagged with a phase, so the ledger
// sums to exactly the elapsed virtual time.
func TestPhaseSumsEqualElapsed(t *testing.T) {
	for _, mk := range []func() *Machine{newLinux, newFreeBSD, newSolaris} {
		m := mk()
		pipe := m.NewPipe()
		wops := []Op{{Kind: OpFork}, {Kind: OpExec}, {Kind: OpThink, D: 5 * sim.Microsecond}}
		for i := 0; i < 20; i++ {
			wops = append(wops, write(pipe, 3000))
		}
		m.SpawnThread("w", wops, 1)
		m.SpawnThread("r", []Op{read(pipe, 60000), {Kind: OpSyscall}}, 1)
		elapsed := m.Run()
		var sum sim.Duration
		for ph := Phase(0); ph < NumPhases; ph++ {
			sum += m.PhaseTime(ph)
		}
		if sum != elapsed {
			t.Errorf("%s: phase sum %v != elapsed %v (breakdown %v)",
				m.os.Name, sum, elapsed, m.PhaseBreakdown())
		}
		for ph := Phase(0); ph < NumPhases; ph++ {
			if m.PhaseTime(ph) == 0 {
				t.Errorf("%s: expected every phase nonzero: %v", m.os.Name, m.PhaseBreakdown())
			}
		}
	}
}

func TestObserveRecordsSpans(t *testing.T) {
	m := newLinux()
	rec := obs.NewRecorder(nil)
	m.Observe(rec)
	pipe := m.NewPipe()
	total := pipe.capacity * 2 // overfill so the writer blocks and gets woken
	m.SpawnThread("w", []Op{write(pipe, total)}, 1)
	m.SpawnThread("r", []Op{read(pipe, total)}, 1)
	m.Run()

	byName := map[string]int{}
	begins, ends := 0, 0
	for _, e := range rec.Events() {
		switch e.Kind {
		case obs.EvBegin:
			begins++
			byName[e.Name]++
		case obs.EvEnd:
			ends++
		}
	}
	if begins == 0 || begins != ends {
		t.Fatalf("unbalanced spans: %d begins, %d ends", begins, ends)
	}
	for _, want := range []string{"dispatch", "syscall", "copy", "wakeup", "run"} {
		if byName[want] == 0 {
			t.Errorf("no %q spans recorded: %v", want, byName)
		}
	}
	// each thread has its own track plus main + kernel
	if tracks := rec.Tracks(); len(tracks) != 4 {
		t.Errorf("tracks = %v, want main/kernel/pid1/pid2", tracks)
	}
	reg := obs.NewRegistry()
	m.FoldMetrics(reg, "kernel.")
	if v, ok := reg.Snapshot().Get("kernel.context_switches"); !ok || v != float64(m.Switches()) {
		t.Errorf("folded switches = %v %v, want %d", v, ok, m.Switches())
	}
}

// TestObserveDoesNotPerturbTiming holds that attaching observability
// never changes simulated results.
func TestObserveDoesNotPerturbTiming(t *testing.T) {
	run := func(observe bool) sim.Duration {
		m := newSolaris()
		if observe {
			m.Observe(obs.NewRing(nil, 16))
			m.SetSampler(obs.NewSampler(sim.Millisecond))
		}
		pipe := m.NewPipe()
		m.SpawnThread("w", []Op{write(pipe, 3000)}, 50)
		m.SpawnThread("r", []Op{read(pipe, 150000)}, 1)
		return m.Run()
	}
	if plain, observed := run(false), run(true); plain != observed {
		t.Fatalf("observability changed the result: %v vs %v", plain, observed)
	}
}
