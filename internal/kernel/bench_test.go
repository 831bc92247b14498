package kernel

import (
	"testing"

	"repro/internal/obs"
)

// The kernel layer's benchmarks: one op is one whole run of a benchmark
// program on Linux 1.2.8 — T2's getpid loop, an 8-process ctx ring of
// 50,000 switches, and I1's 1 MB pipe transfer in 64 B and 64 KB
// messages. Each runs plain, where the periodic fast-forward applies the
// laps that repeat, and with a ring recorder attached, which steps and
// records every event; ns/op and allocs/op show what each costs.

func BenchmarkGetpid(b *testing.B) {
	benchMachine(b, func(m *Machine) { m.SpawnThread("getpid", []Op{{Kind: OpSyscall}}, 100_000) })
}

func BenchmarkRing8(b *testing.B) {
	benchMachine(b, func(m *Machine) { ringOn(m, 8, 50_000/8) })
}

func BenchmarkPipe64B(b *testing.B) {
	benchMachine(b, func(m *Machine) { streamOn(m, 64, 1<<20/64) })
}

func BenchmarkPipe64KB(b *testing.B) {
	benchMachine(b, func(m *Machine) { streamOn(m, 64<<10, 1<<20/(64<<10)) })
}

// benchMachine times build's run plain and recorded.
func benchMachine(b *testing.B, build func(*Machine)) {
	for _, recorded := range []bool{false, true} {
		name := "plain"
		if recorded {
			name = "recorded"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := newLinux()
				if recorded {
					m.Observe(obs.NewRing(nil, 1<<14))
				}
				build(m)
				m.Run()
			}
		})
	}
}
