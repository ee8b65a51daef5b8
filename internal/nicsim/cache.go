package nicsim

import (
	"math"
	"math/bits"
	"slices"
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

// tokenBucket rate-limits cache insertions (§3.2.2: "Pipeleon sets an
// insertion rate limit for each cache; insertions beyond the limit will be
// dropped"), full at the Unix epoch. Time is the NIC's virtual clock in ns,
// never the wall clock, so a recorded session reproduces every decision.
type tokenBucket struct {
	rate   float64 // tokens per second; <=0 = unlimited
	burst  float64
	tokens float64
	last   int64
}

// allow consumes one token if available at virtual time now. The elapsed
// seconds are time.Duration's, the float time.Time.Sub gives for the same
// two instants.
func (tb *tokenBucket) allow(now int64) bool {
	if tb.rate <= 0 {
		return true
	}
	dt := time.Duration(now - tb.last).Seconds()
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
// from masked key words to the covered span's effect on the flow, with a
// fixed entry budget and an insertion rate limiter. Entries live in a slab
// of nodes linked into the LRU order by index; an open-addressed table of
// node indices, keyed by a hash of the key words, finds them. Node i's key
// words sit at i·kw in keys and its writes at i·ww in ids and vals: one
// stride per array, the longest key and result the cache has held, so an
// entry has no buffer of its own and a warm cache neither allocates nor
// frees. The NIC's cacheMu guards every field.
type flowCache struct {
	spec    p4ir.CacheSpec
	budget  int
	limiter tokenBucket

	nodes  []cacheNode // live entries; the slab grows to the budget at most
	keys   []uint64    // kw words per slab slot
	ids    []packet.FieldID
	vals   []uint64 // ww writes per slab slot, split in two arrays
	kw, ww int
	index  []int32 // node index + 1 per slot, 0 = empty; at most half full
	shift  uint    // 64 - log2(len(index))
	// head is the most recently used node and tail the least; both are
	// nilNode when the cache is empty.
	head, tail int32

	hits, misses, inserts, rejected, evictions, invalidations uint64
}

type cacheNode struct {
	hash uint64
	// mark holds the low 31 bits of the node's stamp — the inserts count
	// of the fill that wrote it, which no other fill of the cache shares —
	// and, in bit 31, whether the packet drops. Packed so that a node
	// stays 24 bytes.
	mark            uint32
	prev, next      int32  // towards head, towards tail
	keyLen, nWrites uint16 // the used prefix of the node's stride
}

// stampBits masks a stamp's bits in cacheNode.mark; markDropped is the
// drop bit.
const (
	stampBits   = 1<<31 - 1
	markDropped = 1 << 31
)

func newFlowCache(spec p4ir.CacheSpec) *flowCache {
	return &flowCache{
		spec:    spec,
		budget:  spec.Budget,
		limiter: tokenBucket{rate: spec.InsertLimit, burst: spec.InsertLimit, tokens: spec.InsertLimit},
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
		if nd := &c.nodes[id]; nd.hash == h && slices.Equal(c.keys[int(id)*c.kw:][:nd.keyLen], key) {
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

// fit sizes keys, ids and vals for every slot of the slab at strides of at
// least kw and ww.
func (c *flowCache) fit(kw, ww int) {
	if slots := cap(c.nodes); kw > c.kw || ww > c.ww || len(c.keys) != slots*c.kw || len(c.vals) != slots*c.ww {
		c.refit(max(kw, c.kw), max(ww, c.ww))
	}
}

// refit lays the arrays out afresh at strides kw and ww, moving the live
// nodes' contents.
func (c *flowCache) refit(kw, ww int) {
	slots := cap(c.nodes)
	keys, ids, vals := make([]uint64, slots*kw), make([]packet.FieldID, slots*ww), make([]uint64, slots*ww)
	for i, nd := range c.nodes {
		copy(keys[i*kw:], c.keys[i*c.kw:][:nd.keyLen])
		copy(ids[i*ww:], c.ids[i*c.ww:][:nd.nWrites])
		copy(vals[i*ww:], c.vals[i*c.ww:][:nd.nWrites])
	}
	c.keys, c.ids, c.vals, c.kw, c.ww = keys, ids, vals, kw, ww
}

// get looks up a key, refreshing LRU order on a hit. It returns the node
// holding key, or nilNode and the key's hash, which the miss's fill takes.
func (c *flowCache) get(key []uint64) (int32, uint64) {
	h := hashWords(key)
	id := c.find(key, h)
	if id < 0 {
		c.misses++
		return nilNode, h
	}
	c.touch(id)
	c.hits++
	return id, h
}

// stamp names the fill node id holds: the latest stamp with the node's
// low bits, which holds recognizes for as long as the node keeps the fill.
func (c *flowCache) stamp(id int32) uint64 {
	low := uint64(c.nodes[id].mark & stampBits)
	return c.inserts - (c.inserts-low)&stampBits
}

// holds reports whether node id is live and still holds the fill it held
// when stamp(id) returned stamp: then a get of that fill's key finds the
// node, with that fill's result. A node only ever takes later stamps, and
// a later one with the same low bits is at least 2^31 beyond stamp, so the
// low bits and the distance from the latest stamp decide.
func (c *flowCache) holds(id int32, stamp uint64) bool {
	return int(id) < len(c.nodes) && uint64(c.nodes[id].mark&stampBits) == stamp&stampBits && c.inserts-stamp <= stampBits
}

// result is node id's cached effect, read in place: the written field IDs,
// their values, and whether the packet drops.
func (c *flowCache) result(id int32) ([]packet.FieldID, []uint64, bool) {
	nd := &c.nodes[id]
	o := int(id) * c.ww
	return c.ids[o:][:nd.nWrites], c.vals[o:][:nd.nWrites], nd.mark&markDropped != 0
}

// fill installs the result of a key get has just missed (h is its hash),
// subject to the rate limit and LRU eviction, copying key and writes into
// the node's slots. The key is still absent: the walk holds the cache lock
// from miss to fill and meets a cache once per packet (P4S03: acyclic). A
// key or result too long for a node's length fields is rejected.
func (c *flowCache) fill(key []uint64, h uint64, writes []fieldWrite, dropped bool, now int64) bool {
	if len(key) > math.MaxUint16 || len(writes) > math.MaxUint16 || !c.limiter.allow(now) {
		c.rejected++
		return false
	}
	var id int32
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
		if int(id) == cap(c.nodes) {
			size := max(16, 2*cap(c.nodes))
			if c.budget > 0 {
				size = min(size, c.budget)
			}
			c.nodes = append(make([]cacheNode, 0, size), c.nodes...)
		}
		c.nodes = c.nodes[:id+1]
	}
	c.fit(len(key), len(writes))
	nd := &c.nodes[id]
	nd.hash, nd.keyLen = h, uint16(len(key))
	copy(c.keys[int(id)*c.kw:], key)
	c.indexInsert(id)
	c.pushFront(id)
	c.inserts++
	nd.mark = uint32(c.inserts & stampBits)
	if dropped {
		nd.mark |= markDropped
	}
	o := int(id) * c.ww
	ids, vals := c.ids[o:][:len(writes)], c.vals[o:][:len(writes)]
	for i, w := range writes {
		ids[i], vals[i] = w.id, w.value
	}
	nd.nWrites = uint16(len(writes))
	return true
}

// invalidate clears the whole cache (an update in any covered table
// invalidates it, §3.2.2). The slab and its key and write slots stay.
func (c *flowCache) invalidate() {
	if len(c.nodes) > 0 {
		c.nodes = c.nodes[:0]
		clear(c.index)
		c.head, c.tail = nilNode, nilNode
	}
	c.invalidations++
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
