package kernel

// Observability hooks of the machine: obs tracks and spans, kernel
// narration, the time-series sampler, metric folding, and the deadlock
// dump. Every hook is nil-inert, so an unobserved run pays a nil check
// per event and never formats or allocates.

import (
	"fmt"
	"strings"

	"repro/internal/obs"
	"repro/internal/sim"
)

// trackName labels a thread's timeline in trace exports.
func (t *Thread) trackName() string {
	return fmt.Sprintf("pid %d %s", t.tid, t.name)
}

// Observe attaches a span recorder. Every thread gets a "pid N name"
// track carrying its run spans (one per scheduling period) and the
// syscall, copy, fork, exec and spin spans inside them; every CPU gets a
// kernel track ("kernel" on a uniprocessor, "kernel cpuN" otherwise)
// carrying its dispatch and wakeup spans and the narration instants —
// spawn, dispatch, block, wake, exit, pipe-write, pipe-read. Threads
// spawned before and after the call are covered.
func (m *Machine) Observe(rec *obs.Recorder) {
	m.rec = rec
	for c := range m.kernelTracks {
		name := "kernel"
		if m.ncpu > 1 {
			name = fmt.Sprintf("kernel cpu%d", c)
		}
		m.kernelTracks[c] = rec.Track(name)
	}
	for _, t := range m.threads {
		t.track = rec.Track(t.trackName())
	}
}

// Recorder returns the attached obs recorder (nil when detached).
func (m *Machine) Recorder() *obs.Recorder { return m.rec }

// SetSampler attaches a virtual-time time-series sampler: per window it
// records context switches (kernel.switches) and samples the count of
// runnable-or-running threads (kernel.runnable) at every ready/dispatch
// transition. Nil detaches; per-window kernel.switches sums equal
// Switches() exactly.
func (m *Machine) SetSampler(smp *obs.Sampler) {
	if smp == nil {
		m.tsSwitch, m.tsRunnable = nil, nil
		return
	}
	m.tsSwitch = smp.Counter("kernel.switches")
	m.tsRunnable = smp.Gauge("kernel.runnable")
}

// FoldMetrics adds the machine's counters to a registry under the given
// name prefix ("kernel." conventionally): context switches, threads
// spawned, and the phase ledger.
func (m *Machine) FoldMetrics(reg *obs.Registry, prefix string) {
	if reg == nil {
		return
	}
	reg.Counter(prefix + "context_switches").Add(float64(m.switches))
	reg.Counter(prefix + "processes").Add(float64(len(m.threads)))
	for ph := Phase(0); ph < NumPhases; ph++ {
		reg.Counter(prefix + "phase_us." + ph.String()).Add(m.phases[ph].Microseconds())
	}
}

// sampleRunnable records the current runnable-or-running thread count.
// The O(threads) walk only happens with a sampler attached.
func (m *Machine) sampleRunnable(at sim.Time) {
	if m.tsRunnable == nil {
		return
	}
	n := 0
	for _, t := range m.threads {
		if t.state == sReady || t.state == sRunning {
			n++
		}
	}
	m.tsRunnable.Set(at, int64(n))
}

// chargeSpan is advanceBusy wrapped in an obs span on the given track,
// so the Chrome trace shows the charge as a named interval. With no
// recorder attached it costs two nil checks over a plain charge.
func (m *Machine) chargeSpan(c int, track obs.TrackID, name string, ph Phase, d sim.Duration) {
	if m.rec != nil {
		m.rec.BeginAt(m.now[c], track, name)
	}
	m.advanceBusy(c, ph, d)
	if m.rec != nil {
		m.rec.EndAt(m.now[c], track, name, d.Microseconds())
	}
}

// narrate records one kernel event as an instant on CPU c's kernel
// track. Call sites whose detail needs formatting guard the call with
// m.rec != nil, so an unobserved run never formats or boxes anything.
func (m *Machine) narrate(c int, kind string, tid int, detail string) {
	if m.rec != nil {
		m.rec.InstantAt(m.now[c], m.kernelTracks[c], kind, tid, detail)
	}
}

// deadlockDump renders the tail of a machine's span buffer: the most
// recent events on each track, so a deadlock report shows what every
// timeline was last doing. Empty when the run is not observed.
func deadlockDump(rec *obs.Recorder) string {
	if rec == nil {
		return ""
	}
	events := rec.Events()
	if len(events) == 0 {
		return ""
	}
	const perTrack = 4
	tracks := rec.Tracks()
	var b strings.Builder
	fmt.Fprintf(&b, "last activity per track (%d events buffered, %d dropped):",
		len(events), rec.Dropped())
	for id, name := range tracks {
		var tail []obs.Event
		for _, e := range events {
			if int(e.Track) == id {
				tail = append(tail, e)
				if len(tail) > perTrack {
					tail = tail[1:]
				}
			}
		}
		if len(tail) == 0 {
			continue
		}
		fmt.Fprintf(&b, "\n  %s:", name)
		for _, e := range tail {
			fmt.Fprintf(&b, "\n    t=%v %s %s", sim.Duration(e.When).Std(), e.Kind, e.Name)
		}
	}
	return b.String()
}
