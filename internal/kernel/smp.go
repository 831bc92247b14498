// Package kernel simulates the operating system kernel of the
// benchmarking platform: processes, the scheduler, system-call dispatch,
// pipes and locks, on one or more virtual CPUs.
//
// Simulated processes are op programs — short instruction lists
// (compute, syscall, yield, pipe read/write, fork/exec charges,
// lock/unlock, RCU) run a given number of times — and the machine steps
// them as explicit state machines from a single goroutine. Combined
// with the virtual clock, this makes every simulation a pure,
// deterministic function of its inputs, while benchmark programs (a
// ring of token-passing processes, a pipe bandwidth test) keep the shape
// the originals had against the real kernels.
//
// The scheduler implements the structural differences §5 of the paper
// explains: Linux 1.2 scans an O(n) task list on every switch, 4.4BSD
// picks from constant-time run queues, and Solaris pays a high fixed
// dispatch cost plus a 32-entry per-process mapping resource whose
// overflow causes the jump at 32 processes in Figure 1.
package kernel

// The machine (DESIGN.md §16) has NCPU virtual CPUs, per-CPU run queues
// with deterministic work stealing (or one global queue, selected per
// personality), and per-CPU busy/idle/spin ledgers that sum to the
// machine's elapsed time exactly. It is a conservative parallel
// discrete-event simulator: the engine always steps the CPU with the
// globally minimal local clock (ties to the lowest CPU index). Because a
// CPU only ever observes shared state — lock words, pipe buffers, run
// queues, RCU reader marks — at the start of a step, when its local time
// is minimal, every observation is causally consistent and the output
// is bit-identical at any host parallelism.
//
// Exactness invariant: every advance of a CPU's local clock goes through
// one of three funnels (advanceBusy, advanceSpin, advanceIdle), each
// paired with exactly one ledger add, and Run pads each CPU's idle
// ledger to the machine end time — so busy[c] + idle[c] + spin[c] ==
// elapsed holds exactly, per CPU, always. The audit engine re-checks it.
// Every busy advance is also tagged with a Phase, so the phase ledger
// sums to the CPUs' total busy time.
//
// At NCPU=1 the machine is the uniprocessor the paper measured: one FIFO
// queue (the per-CPU layout degenerates to it), dispatch charges only
// when control actually changes hands, and no idle or spin time, so the
// phase ledger sums to the elapsed time exactly. T2, T4, F1, A3 and I1's
// pipe transport run there; L1 and L2 sweep NCPU up to 16.

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/osprofile"
	"repro/internal/sim"
)

// Phase classifies where a machine's virtual time goes, mirroring the
// paper's Figure 1 decomposition of a context switch: dispatcher
// mechanics, system-call entry/exit, data copies, wakeups, process
// creation, and user computation. The ledger is always on (an array add
// per charge), so `pentiumbench metrics` can attribute any kernel
// experiment without re-running it traced.
type Phase int

const (
	// PhaseDispatch is context-switch mechanics: run-queue scan or pick
	// plus the dispatch-table reload (Solaris), and cross-CPU steals.
	PhaseDispatch Phase = iota
	// PhaseSyscall is system-call entry/exit and argument validation,
	// including the fixed costs of lock and RCU operations.
	PhaseSyscall
	// PhaseCopy is user/kernel data movement (pipe copies).
	PhaseCopy
	// PhaseWakeup is waking blocked peers.
	PhaseWakeup
	// PhaseProcess is process creation work (fork, exec).
	PhaseProcess
	// PhaseUser is time the benchmark programs charge for their own
	// computation.
	PhaseUser
	// NumPhases sizes phase-indexed arrays.
	NumPhases
)

// String names the phase for tables and metric keys.
func (ph Phase) String() string {
	switch ph {
	case PhaseDispatch:
		return "dispatch"
	case PhaseSyscall:
		return "syscall"
	case PhaseCopy:
		return "copy"
	case PhaseWakeup:
		return "wakeup"
	case PhaseProcess:
		return "process"
	case PhaseUser:
		return "user"
	}
	return fmt.Sprintf("Phase(%d)", int(ph))
}

// OpKind is one instruction kind of a thread program.
type OpKind int

const (
	// OpThink charges Op.D of user computation.
	OpThink OpKind = iota
	// OpSyscall charges the personality's bare system-call cost (the
	// getpid benchmark's null call).
	OpSyscall
	// OpYield surrenders the CPU and re-enters the run queue.
	OpYield
	// OpLock acquires Op.L (spinning or blocking per the lock's kind).
	OpLock
	// OpUnlock releases Op.L.
	OpUnlock
	// OpRCURead runs an RCU read-side section of length Op.D against Op.R.
	OpRCURead
	// OpRCUSync waits out Op.R's grace period (writer-side synchronize).
	OpRCUSync
	// OpWrite is one write(2) of Op.N bytes to pipe Op.P. Like a UNIX
	// pipe write it returns only once every byte is in the pipe,
	// blocking whenever the buffer is full.
	OpWrite
	// OpRead reads exactly Op.N bytes from pipe Op.P the way programs
	// loop over read(2): each call blocks until data is buffered and
	// takes what is there, and calls repeat until Op.N bytes arrived.
	OpRead
	// OpFork charges the personality's fork cost (process duplication).
	OpFork
	// OpExec charges the personality's exec cost (program image load).
	OpExec
)

// Op is one instruction of a thread program.
type Op struct {
	Kind OpKind
	// D is the op's duration operand (OpThink, OpRCURead).
	D sim.Duration
	// L is the lock operand (OpLock, OpUnlock).
	L *Lock
	// R is the RCU domain operand (OpRCURead, OpRCUSync).
	R *RCU
	// P and N are the pipe and byte-count operands (OpWrite, OpRead).
	P *Pipe
	N int
}

type threadState int

const (
	sNew threadState = iota
	sReady
	sRunning
	sBlocked
	sDone
)

// Thread is one simulated process: an op program run a fixed number of
// times (its loops).
type Thread struct {
	tid   int
	name  string
	state threadState
	// home is the thread's home run queue under the per-CPU layout.
	home int

	ops   []Op
	pc    int
	loops int

	// readyAt stamps when the thread last became runnable; a CPU
	// dispatching it earlier on its own clock accrues the gap as idle.
	readyAt sim.Time
	// backoff is the spinlock backoff ladder position (0 = not spinning).
	backoff sim.Duration
	// waitStart stamps when the thread began waiting for a lock.
	waitStart sim.Time
	// inCall marks a pipe read(2)/write(2) already entered (its syscall
	// charged), so a thread woken inside the call resumes it instead of
	// re-entering; left is the bytes the current pipe op still has to
	// move.
	inCall bool
	left   int
	// started records that FirstRun is set.
	started bool

	// track is the thread's timeline in the attached obs recorder
	// (0 when none is attached).
	track obs.TrackID

	// UserTime accumulates the thread's OpThink/OpRCURead compute time.
	UserTime sim.Duration
	// Iters counts completed program iterations.
	Iters uint64
	// FirstRun is when the thread was first dispatched — the moment its
	// program starts; Retired is when it finished its last iteration.
	FirstRun, Retired sim.Time
}

// runQueue is a FIFO of ready threads that reuses its backing array:
// pops advance a head index, the slice rewinds whenever it drains, and
// a push into a full array first copies the live tail down — so a
// steady cycle of enqueues and dispatches never allocates.
type runQueue struct {
	q    []*Thread
	head int
}

func (r *runQueue) len() int { return len(r.q) - r.head }

func (r *runQueue) peek() *Thread { return r.q[r.head] }

func (r *runQueue) push(t *Thread) {
	if len(r.q) == cap(r.q) && r.head > 0 {
		n := copy(r.q, r.q[r.head:])
		clear(r.q[n:])
		r.q, r.head = r.q[:n], 0
	}
	r.q = append(r.q, t)
}

func (r *runQueue) pop() *Thread {
	t := r.q[r.head]
	r.q[r.head] = nil
	r.head++
	if r.head == len(r.q) {
		r.q, r.head = r.q[:0], 0
	}
	return t
}

// Machine is one simulated computer with one or more CPUs running one
// operating system personality. It is driven from a single goroutine and
// is not safe for concurrent use.
type Machine struct {
	os   *osprofile.Profile
	ncpu int

	threads []*Thread
	nextTID int
	live    int

	// Per-CPU state, indexed by CPU.
	now     []sim.Time
	busyT   []sim.Duration
	idleT   []sim.Duration
	spinT   []sim.Duration
	running []*Thread
	lastRun []int

	// Run queues: globalQ under the shared layout, cpuQ[c] per CPU under
	// osprofile.KernelCosts.PerCPUQueues.
	globalQ runQueue
	cpuQ    []runQueue
	// table is the Solaris dispatch-resource model, shared machine-wide.
	table *lruTable

	switches uint64
	steals   uint64

	// phases attributes every busy advance to a Phase; the entries sum
	// to the CPUs' total busy time (the elapsed time at NCPU=1).
	phases [NumPhases]sim.Duration

	elapsed  sim.Duration
	finished bool

	// obs integration (see Observe): kernelTracks[c] carries CPU c's
	// dispatch and wakeup spans and its narration instants.
	rec          *obs.Recorder
	kernelTracks []obs.TrackID

	// Time-series handles, nil unless SetSampler attached them. The
	// runnable gauge walks the thread table, so it is only sampled when
	// a sampler is live — the unsampled path pays one nil check.
	tsSwitch   *obs.SeriesCounter
	tsRunnable *obs.SeriesGauge
}

// NewMachine builds a machine with ncpu virtual CPUs running the given
// personality. An unknown scheduler kind (a hand-edited profile JSON) or
// a non-positive CPU count is a returned error, never a panic.
func NewMachine(os *osprofile.Profile, ncpu int) (*Machine, error) {
	if ncpu < 1 {
		return nil, fmt.Errorf("kernel: a machine needs at least one CPU, got %d", ncpu)
	}
	switch os.Kernel.Scheduler {
	case osprofile.SchedScanAll, osprofile.SchedRunQueues, osprofile.SchedPreemptiveMT:
	default:
		return nil, fmt.Errorf("kernel: %s: unknown scheduler kind %d", os, int(os.Kernel.Scheduler))
	}
	m := &Machine{
		os:           os,
		ncpu:         ncpu,
		nextTID:      1,
		now:          make([]sim.Time, ncpu),
		busyT:        make([]sim.Duration, ncpu),
		idleT:        make([]sim.Duration, ncpu),
		spinT:        make([]sim.Duration, ncpu),
		running:      make([]*Thread, ncpu),
		lastRun:      make([]int, ncpu),
		kernelTracks: make([]obs.TrackID, ncpu),
	}
	for c := range m.lastRun {
		m.lastRun[c] = -1
	}
	if os.Kernel.PerCPUQueues {
		m.cpuQ = make([]runQueue, ncpu)
	}
	if os.Kernel.Scheduler == osprofile.SchedPreemptiveMT && os.Kernel.CtxTableSize > 0 {
		m.table = newLRUTable(os.Kernel.CtxTableSize)
	}
	return m, nil
}

// MustMachine is NewMachine for the built-in personalities, whose
// scheduler kinds are compile-time constants.
func MustMachine(os *osprofile.Profile, ncpu int) *Machine {
	m, err := NewMachine(os, ncpu)
	if err != nil {
		panic(err)
	}
	return m
}

// NCPU returns the number of virtual CPUs.
func (m *Machine) NCPU() int { return m.ncpu }

// Switches returns the context switches performed.
func (m *Machine) Switches() uint64 { return m.switches }

// Elapsed returns the machine's total virtual run time (valid after Run).
func (m *Machine) Elapsed() sim.Duration { return m.elapsed }

// Ledger returns CPU c's exact time decomposition. After Run,
// busy+idle+spin == Elapsed for every CPU.
func (m *Machine) Ledger(c int) (busy, idle, spin sim.Duration) {
	return m.busyT[c], m.idleT[c], m.spinT[c]
}

// PhaseTime returns the accumulated time attributed to one phase.
func (m *Machine) PhaseTime(ph Phase) sim.Duration { return m.phases[ph] }

// PhaseBreakdown returns the full attribution ledger, indexed by Phase.
// The entries sum to the CPUs' total busy time — exactly the elapsed
// time on a uniprocessor.
func (m *Machine) PhaseBreakdown() [NumPhases]sim.Duration { return m.phases }

// Threads returns the machine's threads in spawn order.
func (m *Machine) Threads() []*Thread { return m.threads }

// SpawnThread creates a thread that executes ops loops times, runnable
// at time zero. Threads must be spawned before Run.
func (m *Machine) SpawnThread(name string, ops []Op, loops int) *Thread {
	if m.finished {
		panic("kernel: spawning on a finished machine")
	}
	if loops < 1 {
		panic("kernel: a thread needs at least one loop")
	}
	for _, op := range ops {
		if (op.Kind == OpWrite || op.Kind == OpRead) && op.N <= 0 {
			panic("kernel: pipe op of non-positive length")
		}
	}
	t := &Thread{
		tid:   m.nextTID,
		name:  name,
		home:  (m.nextTID - 1) % m.ncpu,
		ops:   ops,
		loops: loops,
	}
	m.nextTID++
	m.threads = append(m.threads, t)
	m.live++
	if m.rec != nil {
		t.track = m.rec.Track(t.trackName())
	}
	m.narrate(t.home, "spawn", t.tid, name)
	m.ready(t.home, t)
	return t
}

// ready marks t runnable as of CPU c's clock and appends it to its run
// queue. Readying an already-ready thread is a no-op that keeps its
// queue position: a double wakeup must not let one thread be picked
// twice.
func (m *Machine) ready(c int, t *Thread) {
	switch t.state {
	case sDone:
		panic("kernel: readying an exited thread")
	case sReady:
		return
	}
	t.state = sReady
	t.readyAt = m.now[c]
	if m.cpuQ != nil {
		m.cpuQ[t.home].push(t)
	} else {
		m.globalQ.push(t)
	}
	m.sampleRunnable(m.now[c])
}

// The three clock funnels. Every local-clock advance goes through
// exactly one of them, each paired with exactly one ledger add — the
// mechanical basis of the per-CPU exactness invariant.

func (m *Machine) advanceBusy(c int, ph Phase, d sim.Duration) {
	m.now[c] = m.now[c].Add(d)
	m.busyT[c] += d
	m.phases[ph] += d
}

func (m *Machine) advanceSpin(c int, d sim.Duration) {
	m.now[c] = m.now[c].Add(d)
	m.spinT[c] += d
}

func (m *Machine) advanceIdle(c int, d sim.Duration) {
	m.now[c] = m.now[c].Add(d)
	m.idleT[c] += d
}

// queueHead returns the thread CPU c would dispatch next (without
// removing it): its own queue's head, or — per-CPU layout only — the
// head of the longest other queue (steal candidate, ties to the lowest
// victim index).
func (m *Machine) queueHead(c int) *Thread {
	if m.cpuQ == nil {
		if m.globalQ.len() == 0 {
			return nil
		}
		return m.globalQ.peek()
	}
	if m.cpuQ[c].len() > 0 {
		return m.cpuQ[c].peek()
	}
	if v := m.stealVictim(c); v >= 0 {
		return m.cpuQ[v].peek()
	}
	return nil
}

// stealVictim picks the CPU to steal from: the longest queue, ties to
// the lowest index; -1 when every other queue is empty.
func (m *Machine) stealVictim(c int) int {
	victim := -1
	for v := range m.cpuQ {
		if v == c || m.cpuQ[v].len() == 0 {
			continue
		}
		if victim < 0 || m.cpuQ[v].len() > m.cpuQ[victim].len() {
			victim = v
		}
	}
	return victim
}

// takeQueued removes and returns CPU c's next thread, reporting whether
// it was stolen from another CPU's queue.
func (m *Machine) takeQueued(c int) (t *Thread, stolen bool) {
	if m.cpuQ == nil {
		if m.globalQ.len() == 0 {
			return nil, false
		}
		return m.globalQ.pop(), false
	}
	if m.cpuQ[c].len() > 0 {
		return m.cpuQ[c].pop(), false
	}
	v := m.stealVictim(c)
	if v < 0 {
		return nil, false
	}
	return m.cpuQ[v].pop(), true
}

// pickCost carries the cost components of one dispatch.
type pickCost struct {
	// scanned counts the tasks examined (Linux's goodness loop).
	scanned int
	// tableMiss reports a dispatch-resource reload (Solaris).
	tableMiss bool
}

// pickCost prices dispatching t under the personality's §5 scheduler
// structure: Linux 1.2's goodness loop examines every live task, 4.4BSD's
// bitmap run queues pick in constant time, and Solaris consults its
// bounded dispatch resource on every pick (the reload is only paid when
// the dispatch actually switches).
func (m *Machine) pickCost(t *Thread) pickCost {
	switch m.os.Kernel.Scheduler {
	case osprofile.SchedScanAll:
		return pickCost{scanned: m.live}
	case osprofile.SchedPreemptiveMT:
		return pickCost{tableMiss: m.table != nil && !m.table.touch(t.tid)}
	}
	return pickCost{}
}

// switchCost converts one dispatch's pick mechanics into time.
func (m *Machine) switchCost(c pickCost) sim.Duration {
	k := &m.os.Kernel
	cost := k.CtxBase + sim.Duration(int64(k.CtxPerTask)*int64(c.scanned))
	if c.tableMiss {
		cost += k.CtxTableMiss
	}
	return cost
}

// cpuKey returns the virtual time at which CPU c can next make progress:
// its local clock while it runs a thread, or the dispatch time of the
// thread it would pull; ok is false when the CPU has nothing to do.
func (m *Machine) cpuKey(c int) (key sim.Time, ok bool) {
	if m.running[c] != nil {
		return m.now[c], true
	}
	h := m.queueHead(c)
	if h == nil {
		return 0, false
	}
	key = m.now[c]
	if h.readyAt > key {
		key = h.readyAt
	}
	return key, true
}

// nextCPU picks the CPU with the globally minimal progress time (ties to
// the lowest index) — the conservative sequencing rule that makes every
// shared-state observation causally consistent.
func (m *Machine) nextCPU() int {
	best := -1
	var bestKey sim.Time
	for c := 0; c < m.ncpu; c++ {
		key, ok := m.cpuKey(c)
		if !ok {
			continue
		}
		if best < 0 || key < bestKey {
			best, bestKey = c, key
		}
	}
	return best
}

// dispatch pulls CPU c's next thread, accrues the idle gap up to its
// ready time, and charges the personality's switch cost when control
// actually changes hands.
func (m *Machine) dispatch(c int) {
	t, stolen := m.takeQueued(c)
	if t == nil {
		return
	}
	if t.readyAt > m.now[c] {
		m.advanceIdle(c, t.readyAt.Sub(m.now[c]))
	}
	cost := m.pickCost(t)
	if stolen {
		m.advanceBusy(c, PhaseDispatch, m.os.Kernel.StealCost)
		m.steals++
	}
	if t.tid != m.lastRun[c] {
		d := m.switchCost(cost)
		m.chargeSpan(c, m.kernelTracks[c], "dispatch", PhaseDispatch, d)
		m.switches++
		m.tsSwitch.Inc(m.now[c])
		var miss int64
		if cost.tableMiss {
			miss = 1
		}
		m.narrateFunc(c, "dispatch", t.tid, dispatchDetail, t.name, int64(d), int64(cost.scanned), miss)
	}
	m.lastRun[c] = t.tid
	m.running[c] = t
	t.state = sRunning
	if !t.started {
		t.started, t.FirstRun = true, m.now[c]
	}
	m.sampleRunnable(m.now[c])
	if m.rec != nil {
		m.rec.BeginAt(m.now[c], t.track, "run")
	}
}

// endRun closes CPU c's current run span (if observing).
func (m *Machine) endRun(c int) {
	if m.rec != nil && m.running[c] != nil {
		m.rec.EndAt(m.now[c], m.running[c].track, "run", 0)
	}
}

// block parks CPU c's running thread until a pipe or lock readies it.
func (m *Machine) block(c int, t *Thread) {
	m.narrate(c, "block", t.tid, t.name)
	t.state = sBlocked
	m.endRun(c)
	m.running[c] = nil
}

// finish retires t after its last iteration.
func (m *Machine) finish(c int, t *Thread) {
	t.state = sDone
	t.Retired = m.now[c]
	m.live--
	m.narrate(c, "exit", t.tid, t.name)
	m.endRun(c)
	m.running[c] = nil
}

// exec advances CPU c's current thread by one op step (handling the
// iteration wrap first, so a thread re-dispatched after its final yield
// retires the way a uniprocessor process exits after being picked).
func (m *Machine) exec(c int, t *Thread) {
	if t.pc == len(t.ops) {
		t.Iters++
		t.loops--
		if t.loops <= 0 {
			m.finish(c, t)
			return
		}
		t.pc = 0
	}
	op := t.ops[t.pc]
	k := &m.os.Kernel
	switch op.Kind {
	case OpThink:
		m.advanceBusy(c, PhaseUser, op.D)
		t.UserTime += op.D
		t.pc++
	case OpSyscall:
		m.chargeSpan(c, t.track, "syscall", PhaseSyscall, k.Syscall)
		t.pc++
	case OpYield:
		t.pc++
		m.endRun(c)
		m.running[c] = nil
		m.ready(c, t)
	case OpWrite:
		op.P.write(c, t, op.N)
	case OpRead:
		op.P.read(c, t, op.N)
	case OpFork:
		m.chargeSpan(c, t.track, "fork", PhaseProcess, k.Fork)
		t.pc++
	case OpExec:
		m.chargeSpan(c, t.track, "exec", PhaseProcess, k.Exec)
		t.pc++
	case OpLock:
		op.L.acquire(c, t)
	case OpUnlock:
		op.L.release(c, t)
	case OpRCURead:
		op.R.read(c, t, op.D)
	case OpRCUSync:
		op.R.synchronize(c, t)
	default:
		panic(fmt.Sprintf("kernel: unknown op kind %d", int(op.Kind)))
	}
}

// Run executes every thread to completion and returns the machine's
// elapsed virtual time. It panics with a *sim.DeadlockError if threads
// remain blocked with nothing runnable — in a benchmark that is always
// a bug. The error carries a dump of the recorder's last events per
// track when the run is observed; the CLI recovers the typed value at
// its dispatch boundary and prints it instead of a Go stack trace.
func (m *Machine) Run() sim.Duration {
	if m.finished {
		panic("kernel: machine already run")
	}
	for {
		c := m.nextCPU()
		if c < 0 {
			break
		}
		if m.running[c] == nil {
			m.dispatch(c)
			continue
		}
		m.exec(c, m.running[c])
	}
	var end sim.Time
	for _, n := range m.now {
		if n > end {
			end = n
		}
	}
	m.sampleRunnable(end)
	var blocked []string
	for _, t := range m.threads {
		if t.state == sBlocked {
			blocked = append(blocked, fmt.Sprintf("%d (%s)", t.tid, t.name))
		}
	}
	if len(blocked) > 0 {
		panic(&sim.DeadlockError{Now: end, Blocked: blocked, Dump: deadlockDump(m.rec)})
	}
	// Pad every CPU's idle ledger to the machine end time, closing the
	// per-CPU exactness identity busy+idle+spin == elapsed.
	for c := range m.now {
		if end > m.now[c] {
			m.advanceIdle(c, end.Sub(m.now[c]))
		}
	}
	m.elapsed = end.Sub(0)
	m.finished = true
	return m.elapsed
}

// lruTable is the Solaris dispatch-resource model: a fixed-capacity LRU
// set of thread identities. A dispatch whose target is absent pays a
// reload penalty. With a cyclic ring of more than 32 processes every
// dispatch misses (the steep Figure 1 rise); with a LIFO chain the
// turnaround locality lets part of the working set survive, so the rise
// past 32 is gradual until about double the capacity (Figure 1's
// Solaris-LIFO curve).
type lruTable struct {
	capacity int
	order    []int // most recent last
}

func newLRUTable(capacity int) *lruTable {
	return &lruTable{capacity: capacity, order: make([]int, 0, capacity+1)}
}

// touch looks up id, promoting it to most-recent. It reports whether the
// id was present (hit). The order slice never outgrows capacity+1, so
// touching never allocates.
func (t *lruTable) touch(id int) bool {
	for i, v := range t.order {
		if v == id {
			copy(t.order[i:], t.order[i+1:])
			t.order[len(t.order)-1] = id
			return true
		}
	}
	t.order = append(t.order, id)
	if len(t.order) > t.capacity {
		t.order = t.order[:copy(t.order, t.order[1:])]
	}
	return false
}
