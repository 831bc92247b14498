package cache

import "sync"

// pools holds one free list of hierarchies per configuration. Config is a
// flat comparable struct, so it doubles as the pool key: two hierarchies
// are interchangeable exactly when every geometry parameter and timing
// constant agrees.
var pools sync.Map // Config -> *sync.Pool

// Acquire returns a hierarchy for cfg, reusing a Released one when the
// per-config pool has one and building a fresh one otherwise. A reused
// hierarchy is observably identical to a fresh one: Release resets the
// cycle ledger and traffic counters and invalidates every line (via the
// O(1) generation bump), and the remaining carried state — the LRU tick
// and the generation base — never influences results, since victim
// choice compares recency only among live ways and both values only grow.
//
// The suite's sweeps build a hierarchy per point; without reuse that is
// hundreds of ~200 KB allocations whose collection dominates GC time.
func Acquire(cfg Config) (*Hierarchy, error) {
	p, ok := pools.Load(cfg)
	if !ok {
		p, _ = pools.LoadOrStore(cfg, new(sync.Pool))
	}
	if h, ok := p.(*sync.Pool).Get().(*Hierarchy); ok {
		return h, nil
	}
	return New(cfg)
}

// MustAcquire is Acquire for compiled-in machine descriptions, mirroring
// MustNew.
func MustAcquire(cfg Config) *Hierarchy {
	h, err := Acquire(cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// Release resets h to its post-New observable state and returns it to
// the pool for a future Acquire with the same configuration. The caller
// must not use h afterwards.
func (h *Hierarchy) Release() {
	h.reset()
	p, _ := pools.LoadOrStore(h.cfg, new(sync.Pool))
	p.(*sync.Pool).Put(h)
}

// reset restores every observable of the hierarchy to its post-New
// state: no resident lines, zero cycles, zero traffic, no breakdown. The
// snapshot buffers stay, for the next user's Mark.
func (h *Hierarchy) reset() {
	h.Flush()
	h.cycles = 0
	h.stats = Stats{}
	h.attr = nil
}
