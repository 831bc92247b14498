// Package memo provides the suite's memoization layers: an in-memory
// single-flight Table shared across the experiments of one run, and a
// persistent content-addressed Store that carries results across runs.
// Both are pure caches — the functions they memoize are deterministic
// functions of their keys, so serving a memoized value can never change
// a result, only how fast it arrives.
package memo

import (
	"sync"
	"sync/atomic"
)

// entry is one memoized value. The Once gives single-flight semantics:
// concurrent requests for the same key compute it exactly once and
// everyone else waits for the value.
type entry[V any] struct {
	once sync.Once
	v    V
}

// Table memoizes a pure function of a comparable key across one suite
// run, such as the §6 sweep points keyed by memmodel.SweepKey: any
// deterministic computation keyed by a flat comparable struct can share
// values through one. A Table is safe for concurrent use.
type Table[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*entry[V]
	hits    atomic.Uint64
	misses  atomic.Uint64
}

// NewTable returns an empty memo table.
func NewTable[K comparable, V any]() *Table[K, V] {
	return &Table[K, V]{entries: make(map[K]*entry[V])}
}

// Do returns the memoized value for key, invoking compute on first
// request and serving the stored value afterwards. Concurrent first
// requests compute once; the rest block until the value is ready.
func (t *Table[K, V]) Do(key K, compute func() V) V {
	t.mu.Lock()
	e, ok := t.entries[key]
	if !ok {
		e = &entry[V]{}
		t.entries[key] = e
	}
	t.mu.Unlock()
	computed := false
	e.once.Do(func() {
		e.v = compute()
		computed = true
	})
	if computed {
		t.misses.Add(1)
	} else {
		t.hits.Add(1)
	}
	return e.v
}

// TableStats reports memo effectiveness.
type TableStats struct {
	// Hits counts requests served without computing.
	Hits uint64
	// Misses counts values computed (equals the number of unique keys).
	Misses uint64
}

// Stats returns a snapshot of the hit/miss counters.
func (t *Table[K, V]) Stats() TableStats {
	return TableStats{Hits: t.hits.Load(), Misses: t.misses.Load()}
}
