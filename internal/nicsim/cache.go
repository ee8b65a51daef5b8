package nicsim

import (
	"math/bits"
	"slices"
	"sync"
	"time"

	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
)

// fieldWrite is one header-field assignment recorded while a cache-filling
// packet traverses the covered tables. Fields are stored as compiled IDs
// so replaying a cached result is a few integer-indexed stores.
type fieldWrite struct {
	id    packet.FieldID
	value uint64
}

// cachedResult is the value stored per cache entry: the combined effect of
// the covered span on packets of this flow.
type cachedResult struct {
	writes  []fieldWrite
	dropped bool
}

// tokenBucket rate-limits cache insertions (§3.2.2: "Pipeleon sets an
// insertion rate limit for each cache; insertions beyond the limit will be
// dropped").
type tokenBucket struct {
	rate   float64 // tokens per second; <=0 = unlimited
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(rate float64) *tokenBucket {
	// The epoch anchors the bucket without consulting the wall clock: the
	// emulator feeds a deterministic virtual time into allow(), and any
	// wall-clock read here would make record/replay sessions diverge.
	// (The zero time.Time would overflow now.Sub(last) — ~292-year
	// time.Duration limit — so the Unix epoch is the anchor.)
	return &tokenBucket{rate: rate, burst: rate, tokens: rate, last: time.Unix(0, 0)}
}

// allow consumes one token if available at time now.
func (tb *tokenBucket) allow(now time.Time) bool {
	if tb.rate <= 0 {
		return true
	}
	dt := now.Sub(tb.last).Seconds()
	if dt > 0 {
		tb.tokens += dt * tb.rate
		if tb.tokens > tb.burst {
			tb.tokens = tb.burst
		}
		tb.last = now
	}
	if tb.tokens >= 1 {
		tb.tokens--
		return true
	}
	return false
}

// flowCache is the runtime store of one generated cache table: an LRU map
// from masked key words to cachedResult, with a fixed entry budget and an
// insertion rate limiter. Entries live in a slab of nodes linked into the
// LRU order by index; an open-addressed table of node indices, keyed by a
// hash of the key words, finds them. Every node owns a key buffer and a
// writes buffer that the next key stored in the node reuses, so a warm
// cache neither allocates nor frees.
type flowCache struct {
	mu      sync.Mutex
	spec    p4ir.CacheSpec
	fields  []string
	budget  int
	limiter *tokenBucket

	nodes []cacheNode // live entries; the slab beyond len keeps its buffers
	index []int32     // node index + 1 per slot, 0 = empty; at most half full
	shift uint        // 64 - log2(len(index))
	// head is the most recently used node and tail the least; both are
	// nilNode when the cache is empty.
	head, tail int32

	hits, misses, inserts, rejected, evictions, invalidations uint64
}

type cacheNode struct {
	hash       uint64
	key        []uint64
	writes     []fieldWrite
	dropped    bool
	prev, next int32 // towards head, towards tail
}

func newFlowCache(spec p4ir.CacheSpec, fields []string) *flowCache {
	return &flowCache{
		spec:    spec,
		fields:  fields,
		budget:  spec.Budget,
		limiter: newTokenBucket(spec.InsertLimit),
		head:    nilNode,
		tail:    nilNode,
	}
}

// hashWords folds key words to 64 bits, one multiply per word. The flow
// caches index by it and compare the words on a match; the profiling
// sink uses it as the identity of a multi-field key.
func hashWords(words []uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, w := range words {
		h = (h ^ w) * fib64
		h ^= h >> 32
	}
	return h
}

// find returns the node holding key, or nilNode.
func (c *flowCache) find(key []uint64, h uint64) int32 {
	if len(c.index) == 0 {
		return nilNode
	}
	mask := uint64(len(c.index) - 1)
	for i := h >> c.shift; ; i = (i + 1) & mask {
		id := c.index[i] - 1
		if id < 0 {
			return nilNode
		}
		if nd := &c.nodes[id]; nd.hash == h && slices.Equal(nd.key, key) {
			return id
		}
	}
}

// unlink takes a node out of the LRU order.
func (c *flowCache) unlink(id int32) {
	nd := &c.nodes[id]
	if nd.prev >= 0 {
		c.nodes[nd.prev].next = nd.next
	} else {
		c.head = nd.next
	}
	if nd.next >= 0 {
		c.nodes[nd.next].prev = nd.prev
	} else {
		c.tail = nd.prev
	}
}

// pushFront makes an unlinked node the most recently used.
func (c *flowCache) pushFront(id int32) {
	nd := &c.nodes[id]
	nd.prev, nd.next = nilNode, c.head
	if c.head >= 0 {
		c.nodes[c.head].prev = id
	} else {
		c.tail = id
	}
	c.head = id
}

func (c *flowCache) touch(id int32) {
	if c.head != id {
		c.unlink(id)
		c.pushFront(id)
	}
}

// indexInsert records a node in a slot array that has room for it.
func (c *flowCache) indexInsert(id int32) {
	mask := uint64(len(c.index) - 1)
	i := c.nodes[id].hash >> c.shift
	for c.index[i] != 0 {
		i = (i + 1) & mask
	}
	c.index[i] = id + 1
}

// indexDelete removes a node's slot, shifting the rest of its probe run
// back so that no lookup meets a hole.
func (c *flowCache) indexDelete(id int32) {
	mask := uint64(len(c.index) - 1)
	i := c.nodes[id].hash >> c.shift
	for c.index[i] != id+1 {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; c.index[j] != 0; j = (j + 1) & mask {
		// The entry at j may move to the hole at i unless its home slot
		// lies cyclically in (i, j].
		if home := c.nodes[c.index[j]-1].hash >> c.shift; (j-home)&mask >= (j-i)&mask {
			c.index[i] = c.index[j]
			i = j
		}
	}
	c.index[i] = 0
}

// growIndex doubles the slot array and re-enters every live node.
func (c *flowCache) growIndex() {
	size := 2 * len(c.index)
	if size < 16 {
		size = 16
	}
	c.index = make([]int32, size)
	c.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for id := range c.nodes {
		c.indexInsert(int32(id))
	}
}

// get looks up a key, refreshing LRU order on hit. The result's writes
// are copied into buf (returned re-sliced): the node's own buffer may be
// rewritten by a concurrent put as soon as the lock is released.
func (c *flowCache) get(key []uint64, buf []fieldWrite) (cachedResult, bool) {
	h := hashWords(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.find(key, h)
	if id < 0 {
		c.misses++
		return cachedResult{}, false
	}
	c.touch(id)
	c.hits++
	nd := &c.nodes[id]
	return cachedResult{writes: append(buf[:0], nd.writes...), dropped: nd.dropped}, true
}

// put installs a result, subject to the rate limit and LRU eviction. The
// key words and the result's writes are copied into the node's buffers:
// callers reuse both across packets.
func (c *flowCache) put(key []uint64, res cachedResult, now time.Time) bool {
	h := hashWords(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.find(key, h)
	if id >= 0 {
		c.touch(id)
	} else {
		if !c.limiter.allow(now) {
			c.rejected++
			return false
		}
		if c.budget > 0 && len(c.nodes) >= c.budget {
			// The evicted node is the one the new key moves into.
			id = c.tail
			c.indexDelete(id)
			c.unlink(id)
			c.evictions++
		} else {
			if 2*(len(c.nodes)+1) > len(c.index) {
				c.growIndex()
			}
			id = int32(len(c.nodes))
			if int(id) < cap(c.nodes) {
				c.nodes = c.nodes[:id+1] // a node an invalidation left behind
			} else {
				c.nodes = append(c.nodes, cacheNode{})
			}
		}
		nd := &c.nodes[id]
		nd.hash = h
		nd.key = append(nd.key[:0], key...)
		c.indexInsert(id)
		c.pushFront(id)
		c.inserts++
	}
	nd := &c.nodes[id]
	nd.writes = append(nd.writes[:0], res.writes...)
	nd.dropped = res.dropped
	return true
}

// invalidate clears the whole cache (an update in any covered table
// invalidates it, §3.2.2). The slab keeps its nodes' buffers.
func (c *flowCache) invalidate() {
	c.mu.Lock()
	if len(c.nodes) > 0 {
		c.nodes = c.nodes[:0]
		clear(c.index)
		c.head, c.tail = nilNode, nilNode
	}
	c.invalidations++
	c.mu.Unlock()
}

// CacheStats is a snapshot of one cache's counters.
type CacheStats struct {
	Table         string
	Hits, Misses  uint64
	Inserts       uint64
	Rejected      uint64
	Evictions     uint64
	Invalidations uint64
	Entries       int
}

func (c *flowCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Table: c.spec.Table,
		Hits:  c.hits, Misses: c.misses,
		Inserts: c.inserts, Rejected: c.rejected,
		Evictions: c.evictions, Invalidations: c.invalidations,
		Entries: len(c.nodes),
	}
}

// HitRate returns hits/(hits+misses) and whether any lookups happened.
func (s CacheStats) HitRate() (float64, bool) {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0, false
	}
	return float64(s.Hits) / float64(total), true
}
