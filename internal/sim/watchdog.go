package sim

import (
	"fmt"
	"strings"
)

// DeadlockError is the structured form of the kernel's deadlock panic: a
// machine stopped with processes still blocked and nothing runnable. A
// deadlocked benchmark program is always a bug in that program, never
// a condition its caller can handle, so the kernel panics with it
// rather than threading an error through every benchmark signature;
// the CLI recovers it at the dispatch boundary and renders the
// diagnostic instead of a Go stack trace.
type DeadlockError struct {
	// Now is the virtual time the machine stopped at.
	Now Time
	// Blocked lists the stuck processes as "pid (name)" strings.
	Blocked []string
	// Dump is a human-readable diagnostic built from the machine's obs
	// span buffer (the most recent spans per track), empty when the run
	// was not observed.
	Dump string
}

// Error summarises the deadlock in one line.
func (e *DeadlockError) Error() string {
	return fmt.Sprintf("kernel: deadlock at t=%v: %d process(es) blocked with empty run queue: %s",
		Duration(e.Now).Std(), len(e.Blocked), strings.Join(e.Blocked, ", "))
}
