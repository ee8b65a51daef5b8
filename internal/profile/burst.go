package profile

type burstKey struct {
	slot int32 // Layout.Tables slot; flowSlot for a flow key
	key  uint64
}

// flowSlot is the burstKey slot of the distinct-flow set.
const flowSlot = -1

// Burst accumulates one burst's worth of profiling updates in plain local
// memory and flushes them in a single pass: one atomic add per touched
// counter slot of its Shard and one acquisition of the collector's lock
// for the distinct-key and flow sets, instead of per-packet
// synchronization. Counter increments are commutative adds and key
// tracking is set insertion, so flushing per burst instead of per packet
// yields the same snapshot. A Burst belongs to one goroutine; Flush must
// run before the results of the burst are observed through
// Collector.Snapshot.
//
// Keys reach the collector's sets at Flush, or — when the burst is
// flushed with FlushCounters — at the Insert of the KeyLog they were
// handed to. Keys noted under a shard that a Bind has since superseded
// are dropped when they arrive, like that shard's counters; a Reset
// between noting and arrival moves them into the window it opens. So a
// program swap (which rebinds) or a Reset that races the processing of a
// batch may lose, or carry over, keys the batch noted before it; a swap
// or Reset between two batches loses nothing.
type Burst struct {
	shard    *Shard
	actions  []uint64
	branches []uint64
	caches   []uint64
	keys     []burstKey
	dirty    bool
}

// NewBurst returns a burst accumulator bound to the shard.
func (s *Shard) NewBurst() *Burst {
	b := &Burst{}
	b.bind(s)
	return b
}

// Rebind flushes any pending updates and points the burst at a (possibly
// new) shard — used when a program swap rebinds the collector's shard bank
// between bursts.
func (b *Burst) Rebind(s *Shard) {
	if b.shard == s {
		return
	}
	b.Flush()
	b.bind(s)
}

func (b *Burst) bind(s *Shard) {
	b.shard = s
	b.actions = resizeZero(b.actions, len(s.actions))
	b.branches = resizeZero(b.branches, len(s.branches))
	b.caches = resizeZero(b.caches, len(s.caches))
	b.keys = b.keys[:0]
	b.dirty = false
}

func resizeZero(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Sampled reports whether the current packet updates counters, advancing
// the collector-wide sampling wheel (at sampling=1 it writes no shared
// state). Callers use it once per packet.
func (b *Burst) Sampled() bool {
	c := b.shard.c
	e := c.every.Load()
	if e <= 1 {
		return true
	}
	return c.tick.Add(1)%e == 0
}

// IncAction counts one packet executing the action at the given slot.
func (b *Burst) IncAction(slot int) {
	b.actions[slot]++
	b.dirty = true
}

// IncBranch counts one conditional outcome at the given slot.
func (b *Burst) IncBranch(slot int, taken bool) {
	i := 2 * slot
	if !taken {
		i++
	}
	b.branches[i]++
	b.dirty = true
}

// IncCache counts a cache hit or miss at the given slot.
func (b *Burst) IncCache(slot int, hit bool) {
	i := 2 * slot
	if !hit {
		i++
	}
	b.caches[i]++
	b.dirty = true
}

// AddKey notes a key value seen at the given table slot: the masked key
// word of a single-field table, a fold of the words otherwise. Repeats are
// logged again and dropped by the collector's set: a filter in front of
// the log was measured (direct-mapped, 64 to 8 192 entries) and lost 5 %
// of datapath_mpps on dash-steady and synth-shift alike, its hit-or-miss
// branch costing more than the set probes it saved.
func (b *Burst) AddKey(slot int, key uint64) {
	b.keys = append(b.keys, burstKey{slot: int32(slot), key: key})
	b.dirty = true
}

// AddFlow notes a distinct flow key.
func (b *Burst) AddFlow(key uint64) { b.AddKey(flowSlot, key) }

// Flush drains the accumulated updates into the bound shard and the
// collector's key sets, and resets the burst for reuse.
func (b *Burst) Flush() {
	if b == nil || !b.dirty {
		return
	}
	b.flushCounters()
	if len(b.keys) > 0 {
		b.shard.c.addKeys(b.shard, b.keys)
		b.keys = b.keys[:0]
	}
	b.dirty = false
}

// FlushCounters is Flush for a caller that inserts the keys later: the
// counters reach the shard now, and the keys noted since the last flush
// move to log, with the shard they were noted under. They reach the
// collector's sets when log.Insert runs (see Burst for what a Bind or
// Reset in between does to them).
func (b *Burst) FlushCounters(log *KeyLog) {
	if b == nil || !b.dirty {
		return
	}
	b.flushCounters()
	log.take(b.shard, b.keys)
	b.keys = b.keys[:0]
	b.dirty = false
}

func (b *Burst) flushCounters() {
	s := b.shard
	for i, v := range b.actions {
		if v > 0 {
			s.actions[i].Add(v)
			b.actions[i] = 0
		}
	}
	for i, v := range b.branches {
		if v > 0 {
			s.branches[i].Add(v)
			b.branches[i] = 0
		}
	}
	for i, v := range b.caches {
		if v > 0 {
			s.caches[i].Add(v)
			b.caches[i] = 0
		}
	}
}

// KeyLog carries distinct keys from the bursts that noted them to a later
// Insert, possibly on another goroutine: set insertion is commutative and
// capped, so the sets end up the same whenever the keys arrive. All keys
// in a log were noted under one shard; keys noted under another (the
// program was swapped in between) first insert what the log holds. A
// KeyLog belongs to one goroutine at a time and keeps its buffer for
// reuse.
type KeyLog struct {
	shard *Shard
	keys  []burstKey
}

func (l *KeyLog) take(s *Shard, keys []burstKey) {
	if l.shard != s {
		l.Insert()
		l.shard = s
	}
	l.keys = append(l.keys, keys...)
}

// Insert adds the logged keys to the collector's sets under one lock
// acquisition and empties the log.
func (l *KeyLog) Insert() {
	if len(l.keys) > 0 {
		l.shard.c.addKeys(l.shard, l.keys)
		l.keys = l.keys[:0]
	}
}
