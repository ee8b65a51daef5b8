package nicsim

import (
	"container/list"
	"sync"
	"time"

	"pipeleon/internal/p4ir"
)

// The flow cache as it stood before the slab rewrite — a Go map from key
// string to container/list element — kept verbatim (names aside) as the
// oracle of TestFlowCacheMatchesReference and FuzzFlowCacheModel.

// refFlowCache is the runtime store of one generated cache table: an LRU map
// from masked key to cachedResult, with a fixed entry budget and an
// insertion rate limiter.
type refFlowCache struct {
	mu      sync.Mutex
	spec    p4ir.CacheSpec
	fields  []string
	budget  int
	lru     *list.List // front = most recent; values are *refCacheNode
	index   map[string]*list.Element
	limiter *tokenBucket

	hits, misses, inserts, rejected, evictions, invalidations uint64
}

type refCacheNode struct {
	key string
	res cachedResult
}

func newRefFlowCache(spec p4ir.CacheSpec, fields []string) *refFlowCache {
	return &refFlowCache{
		spec:    spec,
		fields:  fields,
		budget:  spec.Budget,
		lru:     list.New(),
		index:   map[string]*list.Element{},
		limiter: newTokenBucket(spec.InsertLimit),
	}
}

// get looks up a key, refreshing LRU order on hit. The []byte key is
// indexed via string conversion directly in the map expression, which the
// compiler turns into an allocation-free probe.
func (c *refFlowCache) get(key []byte) (cachedResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.index[string(key)]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		return el.Value.(*refCacheNode).res, true
	}
	c.misses++
	return cachedResult{}, false
}

// put installs a result, subject to the rate limit and LRU eviction. The
// key bytes and the result's writes slice are copied: callers reuse both
// buffers across packets.
func (c *refFlowCache) put(key []byte, res cachedResult, now time.Time) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	res.writes = append([]fieldWrite(nil), res.writes...)
	if el, ok := c.index[string(key)]; ok {
		el.Value.(*refCacheNode).res = res
		c.lru.MoveToFront(el)
		return true
	}
	if !c.limiter.allow(now) {
		c.rejected++
		return false
	}
	if c.budget > 0 && c.lru.Len() >= c.budget {
		back := c.lru.Back()
		if back != nil {
			delete(c.index, back.Value.(*refCacheNode).key)
			c.lru.Remove(back)
			c.evictions++
		}
	}
	k := string(key)
	c.index[k] = c.lru.PushFront(&refCacheNode{key: k, res: res})
	c.inserts++
	return true
}

// invalidate clears the whole cache (an update in any covered table
// invalidates it, §3.2.2).
func (c *refFlowCache) invalidate() {
	c.mu.Lock()
	c.lru.Init()
	c.index = map[string]*list.Element{}
	c.invalidations++
	c.mu.Unlock()
}

func (c *refFlowCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Table: c.spec.Table,
		Hits:  c.hits, Misses: c.misses,
		Inserts: c.inserts, Rejected: c.rejected,
		Evictions: c.evictions, Invalidations: c.invalidations,
		Entries: c.lru.Len(),
	}
}
