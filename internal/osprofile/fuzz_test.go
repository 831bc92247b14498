package osprofile_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/osprofile"
)

// FuzzLoadJSON feeds arbitrary bytes to the profile loader: it must never
// panic, anything it accepts must validate, and every accepted
// personality must run the kernel's benchmark shapes — a getpid loop, a
// 4-process token ring and a 64 KB pipe transfer — without a panic, each
// plain (fast-forwarded) run ending exactly as the same run observed
// (stepped).
func FuzzLoadJSON(f *testing.F) {
	f.Add(`[]`)
	f.Add(`[{"Name":"X","Version":"1"}]`)
	f.Add(`[{"Kernel":{"Scheduler":"scan-all","Syscall":"2.31µs"}}]`)
	var all bytes.Buffer
	if err := osprofile.WriteJSON(&all, osprofile.All()); err != nil {
		f.Fatal(err)
	}
	f.Add(all.String())
	f.Fuzz(func(t *testing.T, src string) {
		ps, err := osprofile.LoadJSON(strings.NewReader(src))
		if err != nil {
			return
		}
		for _, p := range ps {
			if err := p.Validate(); err != nil {
				t.Fatalf("LoadJSON accepted an invalid profile: %v", err)
			}
			for _, s := range kernelShapes {
				plain, err := kernel.NewMachine(p, 1)
				if err != nil {
					t.Fatalf("%s: an accepted profile builds no machine: %v", p, err)
				}
				stepped := kernel.MustMachine(p, 1)
				stepped.Observe(obs.NewRing(nil, 64))
				s.build(plain)
				s.build(stepped)
				if a, b := plain.Run(), stepped.Run(); a != b || plain.PhaseBreakdown() != stepped.PhaseBreakdown() || plain.Switches() != stepped.Switches() {
					t.Fatalf("%s %s: elapsed %v, phases %v, %d switches; observed %v, %v, %d",
						p, s.name, a, plain.PhaseBreakdown(), plain.Switches(), b, stepped.PhaseBreakdown(), stepped.Switches())
				}
				for i, a := range plain.Threads() {
					b := stepped.Threads()[i]
					if a.Iters != b.Iters || a.UserTime != b.UserTime || a.FirstRun != b.FirstRun || a.Retired != b.Retired {
						t.Fatalf("%s %s: thread %d ends %+v, observed %+v", p, s.name, i, *a, *b)
					}
				}
			}
		}
	})
}

// kernelShapes are the kernel benchmarks' programs at fuzzing size.
var kernelShapes = []struct {
	name  string
	build func(m *kernel.Machine)
}{
	{"getpid loop", func(m *kernel.Machine) {
		m.SpawnThread("getpid", []kernel.Op{{Kind: kernel.OpSyscall}}, 1000)
	}},
	{"4-process ring", func(m *kernel.Machine) {
		const nproc = 4
		pipes := make([]*kernel.Pipe, nproc)
		for i := range pipes {
			pipes[i] = m.NewPipe()
		}
		for i := 0; i < nproc; i++ {
			read := kernel.Op{Kind: kernel.OpRead, P: pipes[i], N: 1}
			write := kernel.Op{Kind: kernel.OpWrite, P: pipes[(i+1)%nproc], N: 1}
			ops := []kernel.Op{read, write}
			if i == 0 {
				ops = []kernel.Op{write, read}
			}
			m.SpawnThread("ring", ops, 250)
		}
	}},
	{"64 KB pipe", func(m *kernel.Machine) {
		p := m.NewPipe()
		m.SpawnThread("writer", []kernel.Op{{Kind: kernel.OpWrite, P: p, N: 64}}, 1024)
		m.SpawnThread("reader", []kernel.Op{{Kind: kernel.OpRead, P: p, N: 64}}, 1024)
	}},
}
