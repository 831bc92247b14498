// Package vm models the machine's physical memory as a page pool shared
// between the kernel, resident processes, and the unified buffer cache.
//
// §7 of the paper explains why all three systems cache files up to about
// 20 MB of the 32 MB machine: "all of the systems have a dynamically
// sized buffer cache that trades physical pages for buffer cache pages
// during intensive disk accesses." This package makes that trade
// explicit: the cache's budget is whatever the other consumers leave
// free. The A7 ablation uses it to show bonnie's cache knee moving as
// resident process memory grows.
package vm

import "fmt"

// PageSize is the x86 page size in bytes.
const PageSize = 4096

// Pool is one machine's physical memory.
type Pool struct {
	totalPages int64
	// reserve is the floor of pages the VM keeps free for allocation
	// bursts (the systems' "lotsfree"-style thresholds).
	reserve   int64
	consumers map[string]int64 // pages per named consumer
}

// NewPool builds a pool of the given total memory. The paper machine has
// 32 MB.
func NewPool(totalBytes int64) *Pool {
	if totalBytes < PageSize {
		panic("vm: pool smaller than one page")
	}
	p := &Pool{
		totalPages: totalBytes / PageSize,
		consumers:  make(map[string]int64),
	}
	p.reserve = p.totalPages / 16 // ~6% kept free
	return p
}

// PaperMachine returns the 32 MB pool of tnt.stanford.edu with a typical
// single-user-mode footprint: the kernel image and data, plus init and a
// shell. What remains leaves the buffer cache almost exactly the ~20 MB
// the paper observed.
func PaperMachine(kernelMB int) *Pool {
	p := NewPool(32 << 20)
	p.Claim("kernel", int64(kernelMB)<<20)
	p.Claim("init+shell+daemons", 2<<20)
	p.Claim("page tables & buffer headers", 4<<20)
	return p
}

// Claim assigns pages to a named consumer (kernel text/data, a process
// resident set). Claiming more than is available panics: the real
// machines would page, and no benchmark in this repository models
// thrashing — a workload that needs it is outside the validated domain.
func (p *Pool) Claim(name string, bytes int64) {
	if bytes < 0 {
		panic("vm: negative claim")
	}
	pages := (bytes + PageSize - 1) / PageSize
	if pages > p.availablePages() {
		panic(fmt.Sprintf("vm: %s wants %d pages, only %d available", name, pages, p.availablePages()))
	}
	p.consumers[name] += pages
}

func (p *Pool) claimedPages() int64 {
	var sum int64
	for _, v := range p.consumers {
		sum += v
	}
	return sum
}

func (p *Pool) availablePages() int64 {
	return p.totalPages - p.claimedPages() - p.reserve
}

// CacheBudget returns the bytes the dynamically sized buffer cache may
// grow into: everything not claimed or reserved.
func (p *Pool) CacheBudget() int64 {
	a := p.availablePages()
	if a < 0 {
		a = 0
	}
	return a * PageSize
}
