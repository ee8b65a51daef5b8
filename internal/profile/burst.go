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
	if len(b.keys) > 0 {
		s.c.addKeys(s, b.keys)
		b.keys = b.keys[:0]
	}
	b.dirty = false
}
