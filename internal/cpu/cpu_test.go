package cpu

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestPentiumDescription(t *testing.T) {
	p := PentiumP54C100()
	if p.MHz != 100 {
		t.Errorf("MHz = %v, want 100", p.MHz)
	}
	if p.IssueWidth != 2 {
		t.Errorf("IssueWidth = %v, want 2 (P54C is dual-issue)", p.IssueWidth)
	}
	if !strings.Contains(p.String(), "100 MHz") {
		t.Errorf("String() = %q, want it to mention the clock", p.String())
	}
}

func TestCycles(t *testing.T) {
	p := PentiumP54C100()
	if got := p.Cycles(100); got != sim.Microsecond {
		t.Errorf("Cycles(100) = %v, want 1µs", got)
	}
	if got := p.Cycles(0.5); got != 5*sim.Nanosecond {
		t.Errorf("Cycles(0.5) = %v, want 5ns", got)
	}
}
