// Memhier: explore the Pentium memory-hierarchy model behind §6 of the
// paper. Sweeps the custom read/write/copy routines across buffer sizes,
// shows the 8 KB / 256 KB plateaus and the write-allocate effect, and
// prints the cache traffic statistics that explain them.
//
//	go run ./examples/memhier
package main

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/memmodel"
)

func main() {
	c := cpu.PentiumP54C100()
	fmt.Printf("CPU: %s\n", c)
	cfg := cache.PentiumConfig()
	fmt.Printf("L1: %d KB 2-way   L2: %d KB 2-way   line %d B   write-allocate: %v\n\n",
		cfg.L1Size>>10, cfg.L2Size>>10, cfg.LineSize, cfg.WriteAllocate)

	sizes := []int{2 << 10, 8 << 10, 32 << 10, 256 << 10, 1 << 20, 8 << 20}

	fmt.Printf("%-26s", "bandwidth (MB/s) at size:")
	for _, s := range sizes {
		fmt.Printf(" %8s", human(s))
	}
	fmt.Println()
	for r := memmodel.CustomRead; r <= memmodel.PrefetchCopy; r++ {
		fmt.Printf("%-26s", r.String())
		for _, s := range sizes {
			m := memmodel.NewModel(c, cfg)
			fmt.Printf(" %8.1f", m.Bandwidth(r, s))
		}
		fmt.Println()
	}

	// Why is memset slow? Show the traffic.
	fmt.Println("\nWhere memset's cycles go (1 MB buffer, no write-allocate):")
	m := memmodel.NewModel(c, cfg)
	m.Bandwidth(memmodel.Memset, 1<<20)
	st := m.Hierarchy().Stats()
	fmt.Printf("  memory word writes: %d (every store is an individual bus transaction)\n", st.MemWordWrites)
	fmt.Printf("  lines filled:       %d (writes never allocate)\n", st.LinesFilledFromMem+st.LinesFilledFromL2)

	fmt.Println("\nThe same machine with a write-allocate cache (ablation A1):")
	waCfg := cfg
	waCfg.WriteAllocate = true
	for _, r := range []memmodel.Routine{memmodel.Memset, memmodel.LibcMemcpy} {
		fmt.Printf("  %-14s", r.String())
		for _, s := range sizes {
			m := memmodel.NewModel(c, waCfg)
			fmt.Printf(" %8.1f", m.Bandwidth(r, s))
		}
		fmt.Println()
	}

	fmt.Println("\nPrefetch distance on the prefetching write, 2 MB buffer (ablation A2):")
	for _, d := range []int{0, 1, 2, 4, 8} {
		m := memmodel.NewModel(c, cfg)
		m.PrefetchDistance = d
		fmt.Printf("  distance %d: %6.1f MB/s\n", d, m.Bandwidth(memmodel.PrefetchWrite, 2<<20))
	}

	fmt.Println("\nThe §6.4 tail-loop dip (sizes just under a 16-byte multiple):")
	for _, s := range []int{512, 527, 1024, 1039} {
		m := memmodel.NewModel(c, cfg)
		fmt.Printf("  read %5d bytes: %6.1f MB/s\n", s, m.Bandwidth(memmodel.CustomRead, s))
	}
}

func human(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKB", n>>10)
	}
	return fmt.Sprintf("%dB", n)
}
