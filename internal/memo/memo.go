// Package memo provides the bounded memo table behind the optimizer's
// verdict caches: a long-running daemon sees an unbounded stream of
// distinct options and candidate programs, so every cache of "already
// verified" results needs a fixed capacity.
package memo

import "sync"

// Table is a fixed-capacity map with first-in-first-out eviction and
// hit/miss counters. Eviction only ever costs a recomputation: users store
// results that are pure functions of the key. Safe for concurrent use.
type Table[K comparable, V any] struct {
	mu     sync.Mutex
	m      map[K]V
	order  []K // insertion ring; next is the oldest key once full
	next   int
	hits   uint64
	misses uint64
}

// New returns an empty table holding at most capacity entries.
func New[K comparable, V any](capacity int) *Table[K, V] {
	if capacity < 1 {
		panic("memo: capacity must be positive")
	}
	return &Table[K, V]{m: make(map[K]V), order: make([]K, 0, capacity)}
}

// Get looks k up, counting the outcome.
func (t *Table[K, V]) Get(k K) (V, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	v, ok := t.m[k]
	if ok {
		t.hits++
	} else {
		t.misses++
	}
	return v, ok
}

// Put stores v under k, evicting the oldest entry when the table is full.
func (t *Table[K, V]) Put(k K, v V) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.m[k]; ok {
		t.m[k] = v
		return
	}
	if len(t.order) < cap(t.order) {
		t.order = append(t.order, k)
	} else {
		delete(t.m, t.order[t.next])
		t.order[t.next] = k
		t.next = (t.next + 1) % len(t.order)
	}
	t.m[k] = v
}

// Reset drops every entry; the counters keep running.
func (t *Table[K, V]) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	clear(t.m)
	t.order = t.order[:0]
	t.next = 0
}

// Len returns the number of stored entries.
func (t *Table[K, V]) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// Stats returns the cumulative Get outcomes.
func (t *Table[K, V]) Stats() (hits, misses uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.hits, t.misses
}
