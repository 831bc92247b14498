package kernel

// Table-driven coverage of the three §5 dispatcher structures, pinning
// the double-ready guard: readying an already-runnable thread must be a
// no-op for every personality, or one thread could be picked twice (and
// the goodness scan's queue age would reset). Also pins that each
// structure's pickCost matches its documented mechanics.

import (
	"testing"

	"repro/internal/osprofile"
)

// mkSched builds a personality's machine plus n threads registered with
// it but not yet queued (the goodness scan counts live threads, so they
// must be visible there; they never run).
func mkSched(p *osprofile.Profile, n int) (*Machine, []*Thread) {
	m := MustMachine(p, 1)
	threads := make([]*Thread, n)
	for i := range threads {
		threads[i] = &Thread{tid: i + 1}
		m.threads = append(m.threads, threads[i])
		m.live++
	}
	return m, threads
}

func TestSchedulerStructures(t *testing.T) {
	cases := []struct {
		name    string
		profile *osprofile.Profile
		// scanned is the expected pick cost with three live threads:
		// the goodness loop examines every task in the system; the
		// bitmap and dispatch-queue structures examine none.
		scanned int
	}{
		{"scan-all", osprofile.Linux128(), 3},
		{"run-queues", osprofile.FreeBSD205(), 0},
		{"preemptive", osprofile.Solaris24(), 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, threads := mkSched(c.profile, 3)

			// Empty structure: nothing pending, nil pick.
			if m.queueHead(0) != nil {
				t.Fatal("empty scheduler reports pending work")
			}
			if th, _ := pick(m); th != nil {
				t.Fatalf("empty pick = pid %d, want nil", th.tid)
			}

			// Double ready collapses to one entry.
			m.ready(0, threads[0])
			m.ready(0, threads[0])
			if m.queueHead(0) == nil {
				t.Fatal("readied thread not pending")
			}
			got, cost := pick(m)
			if got != threads[0] {
				t.Fatalf("picked %v, want pid 1", got)
			}
			if cost.scanned != c.scanned {
				t.Fatalf("pick scanned %d tasks, want %d", cost.scanned, c.scanned)
			}
			if th, _ := pick(m); th != nil {
				t.Fatalf("double ready duplicated pid %d in the run queue", th.tid)
			}
			if m.queueHead(0) != nil {
				t.Fatal("drained scheduler still reports pending work")
			}

			// FIFO order for equal priorities, and readying an
			// already-ready thread keeps its queue position (the scan-all
			// goodness age is a property of the task, not the wakeup).
			m.ready(0, threads[1])
			m.ready(0, threads[2])
			m.ready(0, threads[1])
			if first, _ := pick(m); first != threads[1] {
				t.Fatalf("re-ready moved pid 2 from the queue head; picked %v", first)
			}
			if second, _ := pick(m); second != threads[2] {
				t.Fatalf("picked %v second, want pid 3", second)
			}
			if th, _ := pick(m); th != nil {
				t.Fatalf("phantom third entry pid %d after two readies", th.tid)
			}
		})
	}
}

// TestPreemptiveDispatchTable pins the Solaris table mechanics: a cold
// pick reloads the bounded dispatch resource (tableMiss), an immediately
// repeated pick of the same thread hits.
func TestPreemptiveDispatchTable(t *testing.T) {
	p := osprofile.Solaris24()
	if p.Kernel.CtxTableSize <= 0 {
		t.Fatal("Solaris personality lost its bounded dispatch table")
	}
	m, threads := mkSched(p, 2)
	if !m.pickCost(threads[0]).tableMiss {
		t.Fatal("cold pick did not reload the dispatch table")
	}
	if m.pickCost(threads[0]).tableMiss {
		t.Fatal("immediately repeated pick missed the dispatch table")
	}
	// A different thread evicts nothing at size 32 but still misses cold.
	if !m.pickCost(threads[1]).tableMiss {
		t.Fatal("first pick of a second thread did not miss the table")
	}
}
