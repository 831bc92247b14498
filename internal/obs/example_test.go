package obs_test

import (
	"fmt"
	"os"

	"repro/internal/obs"
	"repro/internal/sim"
)

// ExampleRecorder shows span creation on named tracks. Events are stamped
// with virtual time from the model's clock, never the wall clock.
func ExampleRecorder() {
	var clock sim.Clock
	rec := obs.NewRecorder(&clock)
	kernel := rec.Track("kernel")

	rec.Begin(kernel, "syscall")
	clock.Advance(9 * sim.Microsecond)
	rec.End(kernel, "syscall", 9)

	for _, e := range rec.Events() {
		fmt.Printf("%v %s %s\n", e.When, e.Kind, e.Name)
	}
	// Output:
	// T+0s begin syscall
	// T+9µs end syscall
}

// ExampleRegistry shows counter registration. A nil *Registry hands out
// nil handles whose methods no-op without allocating, so models keep their
// counter handles unconditionally and pay one branch when observability
// is off.
func ExampleRegistry() {
	reg := obs.NewRegistry()
	misses := reg.Counter("cache.l1_misses")
	misses.Add(40)
	misses.Add(1)

	var off *obs.Registry // disabled: nil registry
	offMisses := off.Counter("cache.l1_misses")
	offMisses.Add(1) // no-op, no allocation

	v, _ := reg.Snapshot().Get("cache.l1_misses")
	_, ok := off.Snapshot().Get("cache.l1_misses")
	fmt.Println(v, ok)
	// Output:
	// 41 false
}

// ExampleWriteChrome shows exporting a trace as Chrome trace-event JSON,
// loadable at https://ui.perfetto.dev.
func ExampleWriteChrome() {
	var clock sim.Clock
	rec := obs.NewRecorder(&clock)
	cpu := rec.Track("cpu")
	rec.Begin(cpu, "dispatch")
	clock.Advance(14 * sim.Microsecond)
	rec.End(cpu, "dispatch", 14)

	_ = obs.WriteChrome(os.Stdout, []obs.Process{rec.Capture("Linux 1.2.13")})
	// Output:
	// [
	// {"ph":"M","pid":1,"name":"process_name","args":{"name":"Linux 1.2.13"}},
	// {"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"main"}},
	// {"ph":"M","pid":1,"tid":1,"name":"thread_sort_index","args":{"sort_index":0}},
	// {"ph":"M","pid":1,"tid":2,"name":"thread_name","args":{"name":"cpu"}},
	// {"ph":"M","pid":1,"tid":2,"name":"thread_sort_index","args":{"sort_index":1}},
	// {"ph":"B","pid":1,"tid":2,"ts":0,"name":"dispatch"},
	// {"ph":"E","pid":1,"tid":2,"ts":14,"name":"dispatch","args":{"cost":14}}
	// ]
}
