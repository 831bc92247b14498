package kernel

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/osprofile"
	"repro/internal/sim"
)

// The periodic fast-forward's tests: every skipped run must end exactly
// as the same machine stepped with a recorder attached, rings must step
// at most three laps, and the runs that cannot repeat, or must not skip,
// pay nothing for the attempt.

// ffProfiles are the personalities the tests sweep: every built-in one
// (the paper's, the -future set and Linux 1.3.40), two wake-one
// variants, and Solaris with a three-entry dispatch table, which small
// machines overflow.
func ffProfiles() []*osprofile.Profile {
	tiny := *osprofile.Solaris24()
	tiny.Kernel.CtxTableSize = 3
	return append(osprofile.All(), wakeOne(osprofile.Linux128()), wakeOne(osprofile.Solaris24()), &tiny)
}

// ringOn builds the ctx ring: process 0 injects the token, the others
// pass it on, laps times.
func ringOn(m *Machine, nproc, laps int) {
	pipes := make([]*Pipe, nproc)
	for i := range pipes {
		pipes[i] = m.NewPipe()
	}
	for i := 0; i < nproc; i++ {
		ops := []Op{read(pipes[i], 1), write(pipes[(i+1)%nproc], 1)}
		if i == 0 {
			ops = []Op{write(pipes[1], 1), read(pipes[0], 1)}
		}
		m.SpawnThread("ring", ops, laps)
	}
}

// chainOn builds the ctx LIFO chain: the token travels up and back.
func chainOn(m *Machine, nproc, trips int) {
	up, down := make([]*Pipe, nproc-1), make([]*Pipe, nproc-1)
	for i := range up {
		up[i], down[i] = m.NewPipe(), m.NewPipe()
	}
	for i := 0; i < nproc; i++ {
		var ops []Op
		switch {
		case i == 0:
			ops = []Op{write(up[0], 1), read(down[0], 1)}
		case i == nproc-1:
			ops = []Op{read(up[i-1], 1), write(down[i-1], 1)}
		default:
			ops = []Op{read(up[i-1], 1), write(up[i], 1), read(down[i], 1), write(down[i-1], 1)}
		}
		m.SpawnThread("chain", ops, trips)
	}
}

// streamOn builds a writer of count msg-byte writes against a reader of
// count msg-byte reads (I1's pipe transport).
func streamOn(m *Machine, msg, count int) {
	p := m.NewPipe()
	m.SpawnThread("writer", []Op{write(p, msg)}, count)
	m.SpawnThread("reader", []Op{read(p, msg)}, count)
}

// pair runs build on a plain machine and on one with a recorder
// attached, and returns both after their runs.
func pair(p *osprofile.Profile, build func(*Machine)) (plain, stepped *Machine) {
	plain, stepped = MustMachine(p, 1), MustMachine(p, 1)
	stepped.Observe(obs.NewRing(nil, 64))
	for _, m := range []*Machine{plain, stepped} {
		build(m)
		m.Run()
	}
	return plain, stepped
}

// sameRun reports how a plain run differs from its stepped reference:
// elapsed time, phases, switches, every thread's counters and stamps,
// every pipe's bytes.
func sameRun(plain, stepped *Machine) error {
	if plain.Elapsed() != stepped.Elapsed() {
		return fmt.Errorf("elapsed %v, stepped %v", plain.Elapsed(), stepped.Elapsed())
	}
	if plain.PhaseBreakdown() != stepped.PhaseBreakdown() {
		return fmt.Errorf("phases %v, stepped %v", plain.PhaseBreakdown(), stepped.PhaseBreakdown())
	}
	if plain.Switches() != stepped.Switches() {
		return fmt.Errorf("%d switches, stepped %d", plain.Switches(), stepped.Switches())
	}
	for i, a := range plain.Threads() {
		b := stepped.Threads()[i]
		if a.Iters != b.Iters || a.UserTime != b.UserTime || a.FirstRun != b.FirstRun || a.Retired != b.Retired || a.loops != b.loops {
			return fmt.Errorf("thread %d: iters %d user %v first %v retired %v loops %d, stepped %d %v %v %v %d",
				i, a.Iters, a.UserTime, a.FirstRun, a.Retired, a.loops, b.Iters, b.UserTime, b.FirstRun, b.Retired, b.loops)
		}
	}
	for i, a := range plain.pipes {
		if b := stepped.pipes[i]; a.BytesTransferred != b.BytesTransferred || a.buffered != b.buffered {
			return fmt.Errorf("pipe %d: %d bytes (%d buffered), stepped %d (%d)", i, a.BytesTransferred, a.buffered, b.BytesTransferred, b.buffered)
		}
	}
	return nil
}

// skipped returns the first thread's iterations a run applied without
// stepping them.
func skipped(m *Machine) uint64 {
	if m.cycle == nil {
		return 0
	}
	return m.cycle.skipped
}

// TestFastForwardMatchesStepped holds every kernel benchmark shape,
// fast-forwarded, to the same machine stepped with a recorder attached,
// and requires each to skip: rings and chains of up to 16 processes step
// at most three laps, whatever their length.
func TestFastForwardMatchesStepped(t *testing.T) {
	type shape struct {
		name  string
		build func(*Machine)
		// laps is the first thread's loop count; maxStepped bounds the
		// iterations it may step (0: only require a skip).
		laps, maxStepped int
	}
	var shapes []shape
	for _, n := range []int{2, 3, 4, 6, 8, 12, 16} {
		n := n
		shapes = append(shapes,
			shape{fmt.Sprintf("ring%d", n), func(m *Machine) { ringOn(m, n, 500) }, 500, 3},
			shape{fmt.Sprintf("chain%d", n), func(m *Machine) { chainOn(m, n, 300) }, 300, 3})
	}
	for _, msg := range []int{64, 256, 1024, 4096, 16384, 65536} {
		msg := msg
		shapes = append(shapes, shape{fmt.Sprintf("pipe%d", msg), func(m *Machine) { streamOn(m, msg, 4<<20/msg) }, 4 << 20 / msg, 0})
	}
	shapes = append(shapes,
		shape{"getpid", func(m *Machine) { m.SpawnThread("getpid", []Op{{Kind: OpSyscall}}, 10_000) }, 10_000, 3},
		shape{"yield-pair", func(m *Machine) {
			m.SpawnThread("a", []Op{think, {Kind: OpYield}}, 1000)
			m.SpawnThread("b", []Op{{Kind: OpFork}, {Kind: OpYield}, {Kind: OpExec}}, 700)
		}, 1000, 0})
	for _, p := range ffProfiles() {
		for _, s := range shapes {
			plain, stepped := pair(p, s.build)
			if err := sameRun(plain, stepped); err != nil {
				t.Errorf("%s %s (wake-all %v): %v", p, s.name, p.Kernel.PipeWakeAll, err)
				continue
			}
			n := skipped(plain)
			if n == 0 {
				t.Errorf("%s %s: nothing skipped", p, s.name)
			}
			if got := uint64(s.laps) - n; s.maxStepped > 0 && got > uint64(s.maxStepped) {
				t.Errorf("%s %s: stepped %d of %d laps, want at most %d", p, s.name, got, s.laps, s.maxStepped)
			}
		}
	}
}

// TestFastForwardRandomPrograms holds random op programs over shared
// pipes — deadlocking ones included — to their stepped reference: the
// skip must reproduce every ending, not only the benchmarks'.
func TestFastForwardRandomPrograms(t *testing.T) {
	rng := sim.NewRNG(28)
	profiles := ffProfiles()
	skips := 0
	for trial := 0; trial < 400; trial++ {
		p := profiles[rng.Intn(len(profiles))]
		npipes, nthreads := 1+rng.Intn(3), 1+rng.Intn(4)
		type prog struct {
			ops   []Op
			loops int
		}
		progs := make([]prog, nthreads)
		for i := range progs {
			ops := make([]Op, 1+rng.Intn(4))
			for j := range ops {
				switch k := rng.Intn(7); k {
				case 0:
					ops[j] = Op{Kind: OpThink, D: sim.Duration(1 + rng.Intn(5000))}
				case 1:
					ops[j] = Op{Kind: OpSyscall}
				case 2:
					ops[j] = Op{Kind: OpYield}
				case 3:
					ops[j] = Op{Kind: OpFork}
				default:
					// Pipe ops carry an index until the machine exists.
					ops[j] = Op{Kind: []OpKind{OpRead, OpWrite}[k%2], N: 1 + rng.Intn(3000), D: sim.Duration(rng.Intn(npipes))}
				}
			}
			progs[i] = prog{ops, 1 + rng.Intn(300)}
		}
		build := func(m *Machine) {
			pipes := make([]*Pipe, npipes)
			for i := range pipes {
				pipes[i] = m.NewPipe()
			}
			for _, pr := range progs {
				ops := make([]Op, len(pr.ops))
				for j, op := range pr.ops {
					if op.Kind == OpRead || op.Kind == OpWrite {
						op.P, op.D = pipes[op.D], 0
					}
					ops[j] = op
				}
				m.SpawnThread("t", ops, pr.loops)
			}
		}
		plain, stepped := MustMachine(p, 1), MustMachine(p, 1)
		stepped.Observe(obs.NewRing(nil, 64))
		build(plain)
		build(stepped)
		errPlain, errStepped := runCaught(plain), runCaught(stepped)
		if (errPlain == nil) != (errStepped == nil) {
			t.Fatalf("trial %d (%s): plain ended %v, stepped %v", trial, p, errPlain, errStepped)
		}
		if errPlain != nil {
			var a, b *sim.DeadlockError
			if !errors.As(errPlain, &a) || !errors.As(errStepped, &b) || a.Now != b.Now || fmt.Sprint(a.Blocked) != fmt.Sprint(b.Blocked) {
				t.Fatalf("trial %d (%s): plain deadlocked as %v, stepped as %v", trial, p, errPlain, errStepped)
			}
		} else if err := sameRun(plain, stepped); err != nil {
			t.Fatalf("trial %d (%s): %v", trial, p, err)
		}
		if skipped(plain) > 0 {
			skips++
		}
		if c := plain.cycle; c != nil && cap(c.saved.words) != plain.shapeBound() {
			t.Fatalf("trial %d (%s): the saved shape outgrew its bound of %d words", trial, p, plain.shapeBound())
		}
	}
	if skips < 40 {
		t.Fatalf("only %d of 400 random machines skipped; the property is barely exercised", skips)
	}
}

// runCaught runs m, returning a deadlock panic as an error.
func runCaught(m *Machine) (err error) {
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

// TestFastForwardOnlyUnobservedUniprocessors holds that a run with a
// recorder, a sampler, a lock or RCU op, or a second CPU is stepped.
func TestFastForwardOnlyUnobservedUniprocessors(t *testing.T) {
	ring := func(m *Machine) *Machine { ringOn(m, 4, 200); return m }
	cases := map[string]*Machine{
		"recorder": func() *Machine { m := newFreeBSD(); m.Observe(obs.NewRing(nil, 16)); return ring(m) }(),
		"sampler":  func() *Machine { m := newFreeBSD(); m.SetSampler(obs.NewSampler(sim.Millisecond)); return ring(m) }(),
		"two CPUs": ring(MustMachine(osprofile.FreeBSD205(), 2)),
		"lock op": func() *Machine {
			m := ring(newFreeBSD())
			l := m.NewLock(SleepLock)
			m.SpawnThread("locker", []Op{{Kind: OpLock, L: l}, think, {Kind: OpUnlock, L: l}}, 200)
			return m
		}(),
		"rcu op": func() *Machine {
			m := ring(newFreeBSD())
			m.SpawnThread("reader", []Op{{Kind: OpRCURead, R: m.NewRCU(), D: sim.Microsecond}}, 200)
			return m
		}(),
	}
	for name, m := range cases {
		m.Run()
		if m.cycle != nil {
			t.Errorf("%s: run armed the fast-forward", name)
		}
	}
}

// TestFastForwardMissAllocatesNothing holds that a run whose state never
// repeats pays no allocation per boundary: bw_pipe's shape arms the
// fast-forward, never skips, and allocates the same at 1,000 writer
// boundaries as at 10,000, each a failed detection.
func TestFastForwardMissAllocatesNothing(t *testing.T) {
	if m := streamMachine(1000); m.cycle == nil || skipped(m) != 0 {
		t.Fatal("the bw_pipe shape must arm the fast-forward and never skip")
	}
	if a, b := streamAllocs(1_000), streamAllocs(10_000); a != b {
		t.Fatalf("a never-repeating run allocates %v objects at 1,000 boundaries and %v at 10,000", a, b)
	}
}

// TestFastForwardComparesDispatchTable holds a run whose first period
// differs from the later ones only in the dispatch table: a process that
// ran once and exited left its entry in a two-entry table, so the ping
// pong's first period reloads an entry and every later one hits. The
// skip must not take the first period for the repeating one.
func TestFastForwardComparesDispatchTable(t *testing.T) {
	p := *osprofile.Solaris24()
	p.Kernel.CtxTableSize = 2
	plain, stepped := pair(&p, func(m *Machine) {
		ping, pong := m.NewPipe(), m.NewPipe()
		m.SpawnThread("ping", []Op{write(ping, 1), read(pong, 1)}, 100)
		m.SpawnThread("pong", []Op{read(ping, 1), write(pong, 1)}, 100)
		m.SpawnThread("once", []Op{think}, 1)
	})
	if err := sameRun(plain, stepped); err != nil {
		t.Fatal(err)
	}
	if skipped(plain) == 0 {
		t.Fatal("the ping pong did not skip")
	}
}
