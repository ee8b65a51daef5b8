// Package profile implements Pipeleon's runtime profiles (§2, §4.1.2): the
// per-action and per-branch packet counters collected by instrumenting the
// program, the table entry counts and entry-update rates observed through
// the control-plane API, and the probability queries the cost model and the
// hot-pipelet detector issue against them.
//
// A Collector is the concurrent write side, updated by the emulator's
// packet-processing cores (with optional 1/N sampling, §5.4.1). A Profile
// is an immutable snapshot used by the optimizer.
package profile

import (
	"sync"
	"sync/atomic"

	"pipeleon/internal/p4ir"
)

// Profile is a point-in-time snapshot of runtime behaviour.
type Profile struct {
	// ActionCounts[table][action] counts packets that executed the action.
	ActionCounts map[string]map[string]uint64
	// BranchCounts[cond] counts {true, false} outcomes.
	BranchCounts map[string][2]uint64
	// CacheHits / CacheMisses are recorded per cache table so the runtime
	// can evaluate observed hit rates against the plan's estimate.
	CacheHits   map[string]uint64
	CacheMisses map[string]uint64
	// UpdateRates[table] is the observed entry-update rate (ops/second)
	// from control-plane monitoring (§4: "Pipeleon determines the entry
	// update rate of each table by monitoring its invocation of the entry
	// update APIs").
	UpdateRates map[string]float64
	// KeyCardinality[table] is the approximate number of distinct key
	// values observed at the table. The cache-planning heuristic uses it
	// to size the cross-product working set of a candidate flow cache
	// (§3.2.2: "n header fields could produce up to S1·S2...·Sn cache
	// entries").
	KeyCardinality map[string]uint64
	// FlowCardinality is the approximate number of distinct flows
	// observed. Any header-keyed cache's working set is bounded by it —
	// a cache key is a function of the flow — which is what makes wide
	// caches viable under high flow locality despite the field
	// cross-product.
	FlowCardinality uint64
	// SampleRate is the fraction of packets that updated counters
	// (1 = every packet, 1.0/1024 = the paper's sampled mode). Counter
	// values are already scaled back up by the collector; SampleRate is
	// recorded for reporting.
	SampleRate float64
}

// New returns an empty profile.
func New() *Profile {
	return &Profile{
		ActionCounts:   map[string]map[string]uint64{},
		BranchCounts:   map[string][2]uint64{},
		CacheHits:      map[string]uint64{},
		CacheMisses:    map[string]uint64{},
		UpdateRates:    map[string]float64{},
		KeyCardinality: map[string]uint64{},
		SampleRate:     1,
	}
}

// TableTotal returns the total packets observed at a table.
func (p *Profile) TableTotal(table string) uint64 {
	var total uint64
	for _, c := range p.ActionCounts[table] {
		total += c
	}
	return total
}

// ActionProb returns P(a) for each action of the table (Equation 4b).
// With no observations it falls back to uniform over the table's actions.
func (p *Profile) ActionProb(t *p4ir.Table) map[string]float64 {
	out := make(map[string]float64, len(t.Actions))
	total := p.TableTotal(t.Name)
	if total == 0 {
		if len(t.Actions) == 0 {
			return out
		}
		u := 1 / float64(len(t.Actions))
		for _, a := range t.Actions {
			out[a.Name] = u
		}
		return out
	}
	counts := p.ActionCounts[t.Name]
	for _, a := range t.Actions {
		out[a.Name] = float64(counts[a.Name]) / float64(total)
	}
	return out
}

// BranchProb returns P(true) for a conditional. With no observations it
// returns 0.5.
func (p *Profile) BranchProb(cond string) float64 {
	c := p.BranchCounts[cond]
	total := c[0] + c[1]
	if total == 0 {
		return 0.5
	}
	return float64(c[0]) / float64(total)
}

// dropProb sums the probabilities of t's dropping actions: the fraction of
// the table's traffic that drops, the "packet dropping rate" that drives
// table reordering (§3.2.1).
func dropProb(t *p4ir.Table, probs map[string]float64) float64 {
	var drop float64
	for _, a := range t.Actions {
		if a.Drops() {
			drop += probs[a.Name]
		}
	}
	return drop
}

// UpdateRate returns the entry-update rate for a table (0 if unobserved).
func (p *Profile) UpdateRate(table string) float64 { return p.UpdateRates[table] }

// Cardinality returns the approximate distinct-key count for a table, or
// def when unobserved.
func (p *Profile) Cardinality(table string, def uint64) uint64 {
	if c, ok := p.KeyCardinality[table]; ok && c > 0 {
		return c
	}
	return def
}

// ReachProbs computes, for every node of the program, the probability that
// a packet reaches it, by propagating edge probabilities from the root in
// topological order. Dropping actions terminate paths, so a table's
// outgoing mass is 1 minus its drop probability, split per ActionNext for
// switch-case tables.
//
// This is the P(G') of §4.1.2 ("the probability that a packet can reach
// the pipelet ... the sum of probabilities for all reachable paths from
// the graph root to the pipelet") computed without path enumeration.
func (p *Profile) ReachProbs(prog *p4ir.Program) map[string]float64 {
	ix := p4ir.NewIndex(prog)
	reach, out := make([]float64, ix.Len()), map[string]float64{}
	p.ReachProbsAlong(ix, reach)
	for id, r := range reach {
		if r != 0 {
			out[ix.Name(int32(id))] = r
		}
	}
	return out
}

// ReachProbsAlong is ReachProbs into reach (zeroed, by ix's IDs). A program
// whose index has findings has no topological order: nothing is reached.
func (p *Profile) ReachProbsAlong(ix *p4ir.Index, reach []float64) {
	order := ix.Topo()
	if ix.Err() != nil || len(order) == 0 {
		return
	}
	reach[order[0]] = 1
	add := func(next string, mass float64) {
		if id := ix.ID(next); id >= 0 {
			reach[id] += mass
		}
	}
	for _, id := range order {
		mass := reach[id]
		if mass == 0 {
			continue
		}
		if t := ix.Table(id); t != nil {
			probs := p.ActionProb(t)
			if t.IsSwitchCase() {
				for _, a := range t.Actions {
					if !a.Drops() {
						add(t.NextFor(a.Name), mass*probs[a.Name])
					}
				}
			} else {
				add(t.BaseNext, mass*(1-dropProb(t, probs)))
			}
		} else if c := ix.Cond(id); c != nil {
			pt := p.BranchProb(ix.Name(id))
			add(c.TrueNext, mass*pt)
			add(c.FalseNext, mass*(1-pt))
		}
	}
}

// Clone returns a deep copy of the profile.
func (p *Profile) Clone() *Profile {
	out := New()
	out.SampleRate = p.SampleRate
	for t, m := range p.ActionCounts {
		nm := make(map[string]uint64, len(m))
		for a, c := range m {
			nm[a] = c
		}
		out.ActionCounts[t] = nm
	}
	for c, v := range p.BranchCounts {
		out.BranchCounts[c] = v
	}
	for k, v := range p.CacheHits {
		out.CacheHits[k] = v
	}
	for k, v := range p.CacheMisses {
		out.CacheMisses[k] = v
	}
	for k, v := range p.UpdateRates {
		out.UpdateRates[k] = v
	}
	for k, v := range p.KeyCardinality {
		out.KeyCardinality[k] = v
	}
	out.FlowCardinality = p.FlowCardinality
	return out
}

// ActionSite names one (table, action) counter slot in a Layout.
type ActionSite struct {
	Table  string
	Action string
}

// Layout enumerates every instrumentation site of a compiled program so
// the hot path can address counters by integer index instead of by string
// key. The emulator builds one Layout per execution plan and binds it with
// Collector.Bind; slot i of each slice is the site the plan's node
// references by that index.
type Layout struct {
	// Actions lists (table, action) pairs; one counter per pair.
	Actions []ActionSite
	// Branches lists conditional names; two counters per site (true/false).
	Branches []string
	// Caches lists cache table names; two counters per site (hit/miss).
	Caches []string
	// Tables lists tables with distinct-key tracking; one key set per site.
	Tables []string
}

// Shard is one core's lock-free counter bank for a bound Layout. Counters
// are atomic so any goroutine may add to any shard, but the intended
// pattern is one shard per processing context, written through that
// context's Burst: adds are then uncontended and scale linearly with
// cores. Counts are merged back into the owning Collector lazily, on
// Snapshot/Reset/Bind — the hot path never takes the Collector's mutex
// for a counter.
type Shard struct {
	c   *Collector
	gen uint64 // the Bind call that made the shard; see Collector.gen

	actions  []atomic.Uint64 // one per Layout.Actions slot
	branches []atomic.Uint64 // two per Layout.Branches slot: [2i]=true, [2i+1]=false
	caches   []atomic.Uint64 // two per Layout.Caches slot: [2i]=hit, [2i+1]=miss
}

func (s *Shard) zero() {
	for i := range s.actions {
		s.actions[i].Store(0)
	}
	for i := range s.branches {
		s.branches[i].Store(0)
	}
	for i := range s.caches {
		s.caches[i].Store(0)
	}
}

// Collector is the concurrent write side of profiling. The emulator binds
// a Layout, and its cores record through per-context Bursts into the
// shards' integer-indexed counters and the per-table key sets; the
// Pipeleon runtime calls Snapshot on every optimization window.
type Collector struct {
	mu sync.Mutex
	p  *Profile
	// every records 1-in-N sampling (1 = record all packets); counts are
	// scaled by N at snapshot time so probabilities are unbiased. tick is
	// the sampling wheel, shared by every Burst so that exactly 1 in
	// every packets is sampled however packets are spread over cores; at
	// every == 1 it is never touched. With sampling on, which packets are
	// selected depends on goroutine interleaving, so serial and parallel
	// runs agree exactly only at every == 1.
	every atomic.Uint64
	tick  atomic.Uint64
	// keys holds the distinct key values seen per table name this window
	// and flows the distinct flow keys; their lengths are the
	// cardinalities. A set outlives a Bind, so a program swap keeps the
	// window's keys of the tables it keeps. slotKeys is keys resolved to
	// the bound layout's Tables slots, the form Burst.Flush addresses.
	keys     map[string]*u64set
	slotKeys []*u64set
	flows    u64set
	// layout/shards is the currently bound integer-indexed counter bank
	// (nil until Bind). Snapshot merges shards through the layout. gen
	// counts Bind calls: keys flushed by a burst still bound to an earlier
	// layout's shard name that layout's slots and are dropped, like the
	// counters of that shard.
	layout *Layout
	shards []*Shard
	gen    uint64
	// epoch counts Reset calls: a key noted in one epoch is in the sets
	// until the next Reset, so a caller that remembers the epoch it noted
	// a key in may leave noting it again until then (see Burst.Epoch).
	epoch atomic.Uint64
}

// NewCollector returns a collector recording every packet.
func NewCollector() *Collector {
	c := &Collector{p: New(), keys: map[string]*u64set{}}
	c.every.Store(1)
	return c
}

// SetSampling makes the collector record only one in every n packets
// (n >= 1). The paper samples 1/1024 of traffic to cut profiling overhead
// to ~5% on Agilio CX (§5.4.1); "sampling a small fraction of traffic with
// the same sampling rate to update the counter will not alter the result".
func (c *Collector) SetSampling(n uint64) {
	if n == 0 {
		n = 1
	}
	c.mu.Lock()
	c.every.Store(n)
	c.p.SampleRate = 1 / float64(n)
	c.mu.Unlock()
}

// Bind installs a Layout and allocates n per-core shards for it,
// returning them for the emulator to hand out to processing contexts.
// Counts accumulated under a previous binding are folded into the
// collector first, so rebinding on a program swap does not lose the
// current profiling window. The returned shards stay valid until the next
// Bind; Reset zeroes them in place rather than replacing them.
func (c *Collector) Bind(l *Layout, n int) []*Shard {
	if n < 1 {
		n = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.foldShardsLocked()
	c.layout = l
	c.gen++
	c.shards = make([]*Shard, n)
	for i := range c.shards {
		c.shards[i] = &Shard{
			c:        c,
			gen:      c.gen,
			actions:  make([]atomic.Uint64, len(l.Actions)),
			branches: make([]atomic.Uint64, 2*len(l.Branches)),
			caches:   make([]atomic.Uint64, 2*len(l.Caches)),
		}
	}
	c.resolveKeysLocked()
	return c.shards
}

// resolveKeysLocked points slotKeys at the bound layout's tables' sets,
// creating the missing ones.
func (c *Collector) resolveKeysLocked() {
	c.slotKeys = c.slotKeys[:0]
	if c.layout == nil {
		return
	}
	for _, table := range c.layout.Tables {
		s := c.keys[table]
		if s == nil {
			s = &u64set{}
			c.keys[table] = s
		}
		c.slotKeys = append(c.slotKeys, s)
	}
}

// addKeys inserts one burst's keys under a single lock acquisition.
func (c *Collector) addKeys(from *Shard, keys []burstKey) {
	c.mu.Lock()
	if from.gen == c.gen {
		for _, k := range keys {
			if k.slot == flowSlot {
				c.flows.add(k.key)
			} else {
				c.slotKeys[k.slot].add(k.key)
			}
		}
	}
	c.mu.Unlock()
}

// foldShardsLocked drains every shard's counters into the string-keyed
// profile, preserving window totals across a Bind.
func (c *Collector) foldShardsLocked() {
	c.mergeShardsLocked(c.p, true)
}

// mergeShardsLocked adds the live shard counters to out. With drain set it
// takes them, each with one atomic swap to zero, so a count a concurrent
// Burst.Flush adds lands either in out or in the shard, never in neither.
func (c *Collector) mergeShardsLocked(out *Profile, drain bool) {
	l := c.layout
	if l == nil {
		return
	}
	read := func(v *atomic.Uint64) uint64 {
		if drain {
			return v.Swap(0)
		}
		return v.Load()
	}
	for _, s := range c.shards {
		for i := range l.Actions {
			if n := read(&s.actions[i]); n > 0 {
				site := l.Actions[i]
				m := out.ActionCounts[site.Table]
				if m == nil {
					m = map[string]uint64{}
					out.ActionCounts[site.Table] = m
				}
				m[site.Action] += n
			}
		}
		for i, cond := range l.Branches {
			t, f := read(&s.branches[2*i]), read(&s.branches[2*i+1])
			if t+f > 0 {
				v := out.BranchCounts[cond]
				v[0] += t
				v[1] += f
				out.BranchCounts[cond] = v
			}
		}
		for i, cache := range l.Caches {
			if h := read(&s.caches[2*i]); h > 0 {
				out.CacheHits[cache] += h
			}
			if m := read(&s.caches[2*i+1]); m > 0 {
				out.CacheMisses[cache] += m
			}
		}
	}
}

// Snapshot returns an immutable copy of the current profile with counter
// values scaled by the sampling factor. Live shard counters are merged in
// non-destructively, so processing may continue concurrently.
func (c *Collector) Snapshot() *Profile {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.p.Clone()
	c.mergeShardsLocked(out, false)
	c.finishLocked(out)
	return out
}

// CloseWindow ends the profiling window in one step: it returns the
// window's profile, as Snapshot would, and starts the next, as Reset would.
// The shard counters are drained (mergeShardsLocked), so a concurrent
// Burst.Flush counts each packet in exactly one window; the window's maps
// are handed over, not copied.
func (c *Collector) CloseWindow() *Profile {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.p
	c.p = New()
	c.p.SampleRate = out.SampleRate
	c.mergeShardsLocked(out, true)
	c.finishLocked(out)
	c.releaseKeysLocked()
	return out
}

// finishLocked sets out's cardinalities from the window's key sets and
// scales its counters by the sampling factor.
func (c *Collector) finishLocked(out *Profile) {
	for table, set := range c.keys {
		if set.n > 0 {
			out.KeyCardinality[table] = uint64(set.n)
		}
	}
	out.FlowCardinality = uint64(c.flows.n)
	if every := c.every.Load(); every > 1 {
		for _, m := range out.ActionCounts {
			for a := range m {
				m[a] *= every
			}
		}
		for cond, v := range out.BranchCounts {
			v[0] *= every
			v[1] *= every
			out.BranchCounts[cond] = v
		}
		for k := range out.CacheHits {
			out.CacheHits[k] *= every
		}
		for k := range out.CacheMisses {
			out.CacheMisses[k] *= every
		}
	}
}

// Reset clears all counters (used at the start of each profiling window)
// while preserving the sampling configuration and the bound shard set:
// shard counter banks are zeroed in place, so execution plans holding
// shard pointers keep recording into the new window. The key sets are
// released, not cleared: the next window allocates what it needs.
func (c *Collector) Reset() {
	c.mu.Lock()
	rate := c.p.SampleRate
	c.p = New()
	c.p.SampleRate = rate
	for _, s := range c.shards {
		s.zero()
	}
	c.releaseKeysLocked()
	c.mu.Unlock()
}

// releaseKeysLocked starts the next window's key sets and epoch.
func (c *Collector) releaseKeysLocked() {
	c.keys = make(map[string]*u64set, len(c.slotKeys))
	c.flows = u64set{}
	c.resolveKeysLocked()
	c.epoch.Add(1)
}
