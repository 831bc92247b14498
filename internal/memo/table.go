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

// entry is one memoized value. Its first request computes it while the
// rest wait on wg, which gives single-flight semantics: concurrent
// requests for the same key compute it once.
type entry[V any] struct {
	wg sync.WaitGroup
	v  V
	ok bool // the compute returned v
	// panicked is the compute's panic value when it did not return.
	panicked any
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
// requests compute once; the rest block until the value is ready. A
// compute that panics stores nothing: its panic reaches its caller and
// every request that waited on it, and the next Do for key computes
// afresh.
func (t *Table[K, V]) Do(key K, compute func() V) V {
	t.mu.Lock()
	e, found := t.entries[key]
	if !found {
		e = new(entry[V])
		e.wg.Add(1)
		t.entries[key] = e
	}
	t.mu.Unlock()
	if found {
		e.wg.Wait()
		if !e.ok {
			panic(e.panicked)
		}
		t.hits.Add(1)
		return e.v
	}
	defer t.settle(key, e)
	e.v, e.ok = compute(), true
	t.misses.Add(1)
	return e.v
}

// settle releases e's waiters once its compute has ended. A compute that
// did not return leaves no entry behind, and its panic goes on to the
// caller once the waiters have it.
func (t *Table[K, V]) settle(key K, e *entry[V]) {
	if !e.ok {
		t.mu.Lock()
		delete(t.entries, key)
		t.mu.Unlock()
		if e.panicked = recover(); e.panicked != nil {
			defer panic(e.panicked)
		}
	}
	e.wg.Done()
}

// TableStats reports memo effectiveness.
type TableStats struct {
	// Hits counts requests served without computing.
	Hits uint64
	// Misses counts values computed (equals the number of unique keys,
	// as a compute that panics counts as neither).
	Misses uint64
}

// Stats returns a snapshot of the hit/miss counters.
func (t *Table[K, V]) Stats() TableStats {
	return TableStats{Hits: t.hits.Load(), Misses: t.misses.Load()}
}
