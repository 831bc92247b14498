// Package cpu models the processor of the benchmarking platform: an Intel
// Pentium P54C at 100 MHz, as described in §2.2 of the paper.
//
// The model is deliberately coarse: it converts cycle counts produced by the
// cache and memory models into virtual time. It does not simulate the
// pipeline; the paper's results depend on the memory hierarchy
// and the operating systems, not on instruction scheduling details.
package cpu

import (
	"fmt"

	"repro/internal/sim"
)

// CPU describes a processor clock and its issue width.
type CPU struct {
	// Name identifies the processor model.
	Name string
	// MHz is the core clock in megahertz.
	MHz float64
	// IssueWidth is the maximum instructions issued per cycle. The P54C is
	// a dual-issue design (U and V pipes).
	IssueWidth int
}

// PentiumP54C100 returns the paper's processor: a 100 MHz Pentium P54C.
func PentiumP54C100() CPU {
	return CPU{
		Name:       "Intel Pentium P54C",
		MHz:        100,
		IssueWidth: 2,
	}
}

// Cycles converts a (possibly fractional) cycle count to virtual time.
// One cycle at f MHz lasts 1000/f nanoseconds.
func (c CPU) Cycles(n float64) sim.Duration {
	return sim.Duration(n * 1000 / c.MHz)
}

// String describes the CPU.
func (c CPU) String() string {
	return fmt.Sprintf("%s @ %.0f MHz (%d-issue)", c.Name, c.MHz, c.IssueWidth)
}
