// Package sim provides the discrete-event simulation substrate used by every
// model in this repository: a virtual time type, a monotonic virtual clock,
// an event queue, and a deterministic random number generator.
//
// All models in this repository run entirely in virtual time. Nothing ever
// consults the wall clock, so a simulation's outcome is a pure function of
// its inputs and its RNG seed.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in virtual time, measured in nanoseconds from the start of
// the simulation. It is deliberately distinct from time.Time: simulated time
// has no epoch, no time zone, and never advances on its own.
type Time int64

// Duration is a span of virtual time in nanoseconds. It converts freely to
// and from time.Duration (which has the same representation) at API
// boundaries, but models use sim.Duration so that accidental mixing with
// wall-clock durations is visible in signatures.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns the time t+d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Std converts a virtual duration to a standard library duration for
// formatting and interoperability.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Microseconds returns the duration as a floating-point number of
// microseconds. Most of the paper's tables are reported in microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// Milliseconds returns the duration as a floating-point number of
// milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// String formats the duration like time.Duration.
func (d Duration) String() string { return d.Std().String() }

// String formats the time as a duration since simulation start.
func (t Time) String() string { return fmt.Sprintf("T+%s", time.Duration(t)) }

// DurationOf converts a standard library duration to a virtual duration.
func DurationOf(d time.Duration) Duration { return Duration(d) }

// Clock is a monotonic virtual clock. The zero value is a clock at T+0.
//
// Clock is not safe for concurrent use; the simulation frameworks in this
// repository are single-threaded by design (determinism is a requirement,
// see DESIGN.md §7).
type Clock struct {
	now Time
}

// Now returns the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Advance moves the clock forward by d. Advancing by a negative duration
// panics: virtual time is monotonic, and a negative advance is always a
// model bug.
func (c *Clock) Advance(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative clock advance %v", d))
	}
	c.now += Time(d)
}

// AdvanceTo moves the clock forward to t. Moving backwards panics.
func (c *Clock) AdvanceTo(t Time) {
	if t < c.now {
		panic(fmt.Sprintf("sim: clock moving backwards: at %v, asked for %v", c.now, t))
	}
	c.now = t
}
