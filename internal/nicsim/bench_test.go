package nicsim

import (
	"testing"
	"time"

	"pipeleon/internal/p4ir"
)

// BenchmarkFlowCache times the three shapes of a flow-cache probe, one
// operation per iteration, on two-word keys carrying four writes:
//
//	hit        get of a resident key (LRU refresh, writes copied out)
//	miss-fill  get that misses, then put into a cache with room
//	evict      the same with the cache at its budget, so every put
//	           evicts the least recently used entry and reuses its node
func BenchmarkFlowCache(b *testing.B) {
	const budget = 4096
	res := cachedResult{writes: []fieldWrite{{id: 300, value: 1}, {id: 301, value: 2}, {id: 302, value: 3}, {id: 303, value: 4}}}
	keys := make([][]uint64, 4*budget)
	for i := range keys {
		keys[i] = []uint64{0x0a000000 + uint64(i), uint64(i) * 0x9e3779b97f4a7c15}
	}
	now := time.Unix(0, 1)
	newCache := func(budget int) *flowCache {
		return newFlowCache(p4ir.CacheSpec{Table: "c", Kind: p4ir.KindCache, Budget: budget}, nil)
	}
	var buf []fieldWrite

	b.Run("hit", func(b *testing.B) {
		fc := newCache(budget)
		for _, k := range keys[:budget] {
			fc.put(k, res, now)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, ok := fc.get(keys[i%budget], buf)
			if !ok {
				b.Fatal("resident key missed")
			}
			buf = r.writes
		}
	})
	b.Run("miss-fill", func(b *testing.B) {
		fc := newCache(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%len(keys) == 0 {
				fc.invalidate() // room again; the slab keeps its buffers
			}
			k := keys[i%len(keys)]
			if _, ok := fc.get(k, buf); ok {
				b.Fatal("absent key hit")
			}
			fc.put(k, res, now)
		}
	})
	b.Run("evict", func(b *testing.B) {
		fc := newCache(budget)
		for _, k := range keys[:budget] {
			fc.put(k, res, now)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A key leaves the cache budget puts after it went in, and
			// comes round again after len(keys): always a miss.
			k := keys[(budget+i)%len(keys)]
			if _, ok := fc.get(k, buf); ok {
				b.Fatal("evicted key hit")
			}
			fc.put(k, res, now)
		}
	})
}
