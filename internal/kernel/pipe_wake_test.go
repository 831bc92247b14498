package kernel

// Regression tests for the pipe wakeup-ordering fix: the wake policy is
// a personality knob (wake-all thundering herd vs wake-one), a reader
// woken with nothing buffered re-blocks without double-charging switch
// time, and the exact switch counts of a 2-writer/2-reader ping-pong
// are pinned per personality and policy.

import (
	"testing"

	"repro/internal/osprofile"
)

// runPipePingPong runs the 2-writer/2-reader workload: readers block
// first, then each writer alternates a one-byte write with a yield, so
// every write finds both readers parked — the shape that separates
// waking the whole queue from waking its head.
func runPipePingPong(p *osprofile.Profile, msgs int) *Machine {
	m := MustMachine(p, 1)
	pipe := m.NewPipe()
	for i := 0; i < 2; i++ {
		m.SpawnThread("reader", []Op{read(pipe, 1)}, msgs)
	}
	for i := 0; i < 2; i++ {
		m.SpawnThread("writer", []Op{write(pipe, 1), {Kind: OpYield}}, msgs)
	}
	m.Run()
	return m
}

// wakeOne clones a personality with the wake-one policy.
func wakeOne(p *osprofile.Profile) *osprofile.Profile {
	q := *p
	q.Kernel.PipeWakeAll = false
	return &q
}

func TestPipePingPongSwitchCountPinned(t *testing.T) {
	const msgs = 25
	cases := []struct {
		name    string
		profile *osprofile.Profile
		// The pinned switch counts: any change to wakeup ordering,
		// re-block accounting, or scheduler queueing moves these.
		wakeAll uint64
		wakeOne uint64
	}{
		{"Linux 1.2.8", osprofile.Linux128(), 92, 103},
		{"FreeBSD 2.0.5R", osprofile.FreeBSD205(), 92, 103},
		{"Solaris 2.4", osprofile.Solaris24(), 92, 103},
	}
	for _, c := range cases {
		if !c.profile.Kernel.PipeWakeAll {
			t.Fatalf("%s: built-in personality must default to wake-all (baseline safety)", c.name)
		}
		all := runPipePingPong(c.profile, msgs)
		one := runPipePingPong(wakeOne(c.profile), msgs)
		if all.Switches() != c.wakeAll {
			t.Errorf("%s wake-all: %d switches, pinned %d", c.name, all.Switches(), c.wakeAll)
		}
		if one.Switches() != c.wakeOne {
			t.Errorf("%s wake-one: %d switches, pinned %d", c.name, one.Switches(), c.wakeOne)
		}
		// The policies must be observably different. Note the direction:
		// with two writers stocking the pipe, waking the whole queue lets
		// both readers drain it in one trip (fewer wakeup dispatches),
		// while wake-one pays a dispatch per message. The herd only
		// wastes switches when a woken reader finds nothing buffered —
		// the single-writer shape below.
		if all.Switches() == one.Switches() {
			t.Errorf("%s: wake policy had no effect on switch count (%d)",
				c.name, all.Switches())
		}
		// Both policies move the same data in the same virtual order.
		if all.PhaseTime(PhaseCopy) != one.PhaseTime(PhaseCopy) {
			t.Errorf("%s: copy time diverged: %v vs %v",
				c.name, all.PhaseTime(PhaseCopy), one.PhaseTime(PhaseCopy))
		}
	}
}

// TestPipeWokenReaderReblocksOnce pins the re-block accounting under the
// thundering herd: a write of one byte wakes both readers; the loser
// finds the pipe empty and re-blocks. The loser's spurious trip must
// cost exactly one dispatch (the wakeup itself), never two — the
// re-block path charges nothing.
func TestPipeWokenReaderReblocksOnce(t *testing.T) {
	run := func(p *osprofile.Profile) *Machine {
		m := MustMachine(p, 1)
		pipe := m.NewPipe()
		for i := 0; i < 2; i++ {
			m.SpawnThread("reader", []Op{read(pipe, 1)}, 1)
		}
		m.SpawnThread("writer", []Op{write(pipe, 1), {Kind: OpYield}, write(pipe, 1)}, 1)
		m.Run()
		return m
	}
	// Single writer, one byte per write: the first write wakes both
	// readers under the herd, the loser finds the pipe already drained
	// and re-blocks. That spurious trip must cost exactly one dispatch
	// (the wakeup itself) — the re-block path charges nothing — so the
	// totals pin to these counts. A double-charge on re-block, or a
	// wakeup charged to the sleeper instead of the waker, moves them.
	all := run(osprofile.Linux128())
	one := run(wakeOne(osprofile.Linux128()))
	const pinnedAll, pinnedOne = 7, 6
	if all.Switches() != pinnedAll {
		t.Fatalf("herd re-block workload made %d switches, pinned %d", all.Switches(), pinnedAll)
	}
	if one.Switches() != pinnedOne {
		t.Fatalf("wake-one workload made %d switches, pinned %d", one.Switches(), pinnedOne)
	}
	// In this shape the herd can never beat wake-one: every spurious
	// wakeup is pure dispatch overhead.
	if all.Switches() < one.Switches() {
		t.Fatalf("herd (%d switches) beat wake-one (%d) in a shape where extra wakeups are pure waste",
			all.Switches(), one.Switches())
	}
}
