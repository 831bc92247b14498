package vm_test

import (
	"fmt"

	"repro/internal/vm"
)

// Example shows the §7 page trade: the buffer cache's budget is whatever
// the kernel and resident processes leave free, so a memory hog shrinks
// the file cache.
func Example() {
	pool := vm.PaperMachine(3) // 3 MB kernel
	fmt.Printf("idle: cache budget %d MB\n", pool.CacheBudget()>>20)
	pool.Claim("simulation job", 10<<20)
	fmt.Printf("busy: cache budget %d MB\n", pool.CacheBudget()>>20)
	// Output:
	// idle: cache budget 21 MB
	// busy: cache budget 11 MB
}
