package kernel

import (
	"repro/internal/sim"
)

// Pipe is a simulated UNIX pipe: a bounded kernel buffer with blocking
// reads and writes, driven by OpWrite and OpRead steps. Data content is
// not simulated — only byte counts and their costs — since no benchmark
// in the paper inspects pipe payloads.
//
// The cost model follows §9.1: each read or write pays the
// read/write-class system-call cost, moving data pays the personality's
// per-KB copy cost (Solaris' STREAMS implementation makes this large),
// and waking the blocked peer pays the wake cost.
type Pipe struct {
	m        *Machine
	capacity int
	buffered int

	readers []*Thread
	writers []*Thread

	// BytesTransferred counts all data that has passed through.
	BytesTransferred uint64
}

// NewPipe creates a pipe with the personality's kernel buffer capacity.
func (m *Machine) NewPipe() *Pipe {
	pp := &Pipe{m: m, capacity: m.os.Kernel.PipeCapacity}
	m.pipes = append(m.pipes, pp)
	return pp
}

// Buffered returns the bytes currently in the kernel buffer.
func (pp *Pipe) Buffered() int { return pp.buffered }

// copyCost is the cost of moving n bytes between user and kernel space.
func (pp *Pipe) copyCost(n int) sim.Duration {
	return sim.Duration(int64(pp.m.os.Kernel.PipeCopyPerKB) * int64(n) / 1024)
}

// enter charges the read/write-class system-call cost of entering a
// pipe call: the bare trap plus argument validation and file-table work.
func (pp *Pipe) enter(c int, t *Thread) {
	k := &pp.m.os.Kernel
	pp.m.chargeSpan(c, t.track, "syscall", PhaseSyscall, k.Syscall+k.ReadWriteExtra)
	t.inCall = true
}

// wake readies waiters on q and returns the remaining queue. Under the
// personality's wake-all policy (every built-in profile: historical
// kernels thundering-herd their pipe sleepers) the whole queue is woken
// for one wake charge. Under wake-one only the FIFO head is woken, one
// wake charge per wakeup; a reader woken when another consumed the data
// first simply re-blocks — the re-block costs nothing extra, since
// switch time is charged at dispatch, not at wakeup.
func (pp *Pipe) wake(c int, q []*Thread) []*Thread {
	if len(q) == 0 {
		return q
	}
	m := pp.m
	m.chargeSpan(c, m.kernelTracks[c], "wakeup", PhaseWakeup, m.os.Kernel.PipeWake)
	n := len(q)
	if !m.os.Kernel.PipeWakeAll {
		n = 1
	}
	for _, t := range q[:n] {
		m.narrate(c, "wake", t.tid, t.name)
		m.ready(c, t)
	}
	return q[:copy(q, q[n:])]
}

// write runs one step of t's OpWrite of n bytes on CPU c: enter the
// call, then move one chunk per step — as much as the buffer has room
// for, waking blocked readers — blocking while the buffer is full.
func (pp *Pipe) write(c int, t *Thread, n int) {
	m := pp.m
	if !t.inCall {
		pp.enter(c, t)
		t.left = n
		return
	}
	space := pp.capacity - pp.buffered
	if space == 0 {
		pp.writers = append(pp.writers, t)
		m.block(c, t)
		return
	}
	chunk := min(t.left, space)
	m.chargeSpan(c, t.track, "copy", PhaseCopy, pp.copyCost(chunk))
	pp.buffered += chunk
	pp.BytesTransferred += uint64(chunk)
	t.left -= chunk
	m.narrateFunc(c, "pipe-write", t.tid, pipeDetail, "", int64(chunk), int64(pp.buffered), 0)
	pp.readers = pp.wake(c, pp.readers)
	if t.left == 0 {
		t.inCall = false
		t.pc++
	}
}

// read runs one step of t's OpRead of n bytes on CPU c. Each read(2)
// call is two steps: enter the call, then take what is buffered (up to
// the bytes still wanted), waking blocked writers — or block while the
// buffer is empty. A woken reader that finds the buffer drained again
// re-blocks inside the same call at no extra charge.
func (pp *Pipe) read(c int, t *Thread, n int) {
	m := pp.m
	if !t.inCall {
		if t.left == 0 {
			t.left = n
		}
		pp.enter(c, t)
		return
	}
	if pp.buffered == 0 {
		pp.readers = append(pp.readers, t)
		m.block(c, t)
		return
	}
	chunk := min(t.left, pp.buffered)
	m.chargeSpan(c, t.track, "copy", PhaseCopy, pp.copyCost(chunk))
	pp.buffered -= chunk
	t.left -= chunk
	m.narrateFunc(c, "pipe-read", t.tid, pipeDetail, "", int64(chunk), int64(pp.buffered), 0)
	pp.writers = pp.wake(c, pp.writers)
	t.inCall = false
	if t.left == 0 {
		t.pc++
	}
}
