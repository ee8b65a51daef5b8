package opt

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"pipeleon/internal/deps"
	"pipeleon/internal/pipelet"
)

// SegKind distinguishes the two span transformations.
type SegKind int

const (
	// SegCache wraps a span of tables in a runtime-filled flow cache.
	SegCache SegKind = iota
	// SegMerge combines a span of tables into one merged table (or a
	// pre-populated merged-exact cache when the members are exact).
	SegMerge
)

func (k SegKind) String() string {
	if k == SegCache {
		return "cache"
	}
	return "merge"
}

// Segment is a contiguous run of tables, identified by position in the
// option's table order, that one technique is applied to.
type Segment struct {
	Kind  SegKind
	Start int
	Len   int
}

// OptionKind discriminates plain pipelet options from group options.
type OptionKind int

const (
	// OptPipelet transforms a single pipelet.
	OptPipelet OptionKind = iota
	// OptGroupCombo applies one member option per grouped pipelet.
	OptGroupCombo
	// OptGroupCache inserts one cache covering an entire pipelet group,
	// including its branch node (§4.1.1 joint optimization).
	OptGroupCache
	// OptPlacement assigns tables to execution tiers (and replicates
	// some across tiers) on a heterogeneous target. It rewrites only
	// placement annotations, never program structure.
	OptPlacement
)

// Option is one optimization candidate with its estimated benefit and
// resource costs — the unit the knapsack search selects among (§4.2).
type Option struct {
	Kind OptionKind

	// Pipelet/Order/Segments describe an OptPipelet candidate: the tables
	// of Pipelet laid out in Order, with Segments applied to runs of it.
	Pipelet  *pipelet.Pipelet
	Order    []string
	Segments []Segment

	// Group and Members describe group candidates.
	Group   *pipelet.Group
	Members []*Option // OptGroupCombo: chosen option per member (nil = unchanged)

	// Placement describes an OptPlacement candidate.
	Placement *Placement

	// Gain is the expected reduction of whole-program latency in
	// nanoseconds (pipelet gain weighted by reach probability).
	Gain float64
	// MemCost is the extra memory in bytes the option consumes.
	MemCost int
	// UpdateCost is the extra entry-update bandwidth in ops/second.
	UpdateCost float64
}

// SegTables returns the table names a segment covers.
func (o *Option) SegTables(s Segment) []string {
	return o.Order[s.Start : s.Start+s.Len]
}

// String renders a compact human-readable form, e.g.
// "reorder[t3 t1 t2] cache[t3,t1]".
func (o *Option) String() string {
	switch o.Kind {
	case OptPlacement:
		return "placement " + o.Placement.String()
	case OptGroupCache:
		return fmt.Sprintf("group-cache@%s", o.Group.Branch)
	case OptGroupCombo:
		var parts []string
		for _, m := range o.Members {
			if m != nil {
				parts = append(parts, m.String())
			}
		}
		return "group{" + strings.Join(parts, "; ") + "}"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "order%v", o.Order)
	for _, s := range o.Segments {
		fmt.Fprintf(&sb, " %s%v", s.Kind, o.SegTables(s))
	}
	return sb.String()
}

// SpanKey is the canonical identity of a table span, used to key hit-rate
// overrides and generated table names.
func SpanKey(tables []string) string { return strings.Join(tables, "+") }

// enumerateOrders returns the dependency-valid permutations of tables,
// capped at maxOrders. The original order is always first. Beyond the cap
// (or for long pipelets) only the original and the greedy drop-sorted
// orders are returned.
func enumerateOrders(an *deps.Analyzer, tables []string, dropRate map[string]float64, maxOrders int) [][]string {
	n := len(tables)
	orders := [][]string{append([]string(nil), tables...)}
	if n < 2 {
		return orders
	}
	// Factorial guard: enumerate exhaustively only for small pipelets.
	if factorialAtMost(n, maxOrders) {
		seen := map[string]bool{SpanKey(tables): true}
		perm := make([]string, 0, n)
		used := make([]bool, n)
		var rec func()
		rec = func() {
			if len(orders) >= maxOrders {
				return
			}
			if len(perm) == n {
				key := SpanKey(perm)
				if !seen[key] && an.ValidOrder(tables, perm) {
					seen[key] = true
					orders = append(orders, append([]string(nil), perm...))
				}
				return
			}
			for i := 0; i < n; i++ {
				if used[i] {
					continue
				}
				used[i] = true
				perm = append(perm, tables[i])
				rec()
				perm = perm[:len(perm)-1]
				used[i] = false
			}
		}
		rec()
		return orders
	}
	// Heuristic fallback: greedy drop-sorted valid order.
	greedy := GreedyDropOrder(an, tables, dropRate)
	if SpanKey(greedy) != SpanKey(tables) {
		orders = append(orders, greedy)
	}
	return orders
}

func factorialAtMost(n, cap int) bool {
	f := 1
	for i := 2; i <= n; i++ {
		f *= i
		if f > cap {
			return false
		}
	}
	return true
}

// GreedyDropOrder builds a dependency-valid order that promotes tables
// with higher drop rates to earlier positions (§3.2.1: "Pipeleon promotes
// tables with higher dropping rates to earlier parts of the program"):
// repeatedly place the highest-drop table whose original-order
// predecessors with dependencies have all been placed.
func GreedyDropOrder(an *deps.Analyzer, tables []string, dropRate map[string]float64) []string {
	n := len(tables)
	placed := make([]bool, n)
	out := make([]string, 0, n)
	ready := func(i int) bool {
		for j := 0; j < n; j++ {
			if placed[j] || j == i {
				continue
			}
			// j unplaced; if original order has j before i with a
			// dependency j→i, i is not ready.
			if j < i && an.Dependency(tables[j], tables[i]) != deps.DepNone {
				return false
			}
			// Also i must not need to stay before j (dependency i→j is
			// fine — i goes first).
		}
		return true
	}
	for len(out) < n {
		best := -1
		for i := 0; i < n; i++ {
			if placed[i] || !ready(i) {
				continue
			}
			if best == -1 {
				best = i
				continue
			}
			di, db := dropRate[tables[i]], dropRate[tables[best]]
			if di > db+1e-12 {
				best = i
			}
		}
		if best == -1 { // should not happen for a DAG-consistent order
			for i := 0; i < n; i++ {
				if !placed[i] {
					best = i
					break
				}
			}
		}
		placed[best] = true
		out = append(out, tables[best])
	}
	return out
}

// evalScratch is the pooled per-order working state of the fused
// enumerate-and-score loop: the dense index view of the order, the
// segment accumulator, the precomputed legal span lengths, and a cache of
// span key-field counts. Pooling it (LocalOptimize runs concurrently
// across units) keeps the per-candidate path allocation-free.
type evalScratch struct {
	orderIdx []int
	segs     []Segment
	// maxCache[pos] / maxMerge[pos] are the longest legal cache / merge
	// span lengths starting at pos — the deps checks are monotone over
	// prefixes (the enumeration breaks at the first violation), so one
	// O(n²) precompute per order replaces per-candidate CanCache/CanMerge
	// calls.
	maxCache []int
	maxMerge []int
	// keyLen caches len(an.CacheKey(span)) per (start, len), -1 = unset.
	keyLen []int
	n      int
}

var evalScratchPool = sync.Pool{New: func() any { return new(evalScratch) }}

// prepareOrder points the scratch at one table order.
func (sc *evalScratch) prepareOrder(ev *Evaluator, order []string) {
	n := len(order)
	sc.n = n
	sc.orderIdx = ev.appendIdx(sc.orderIdx[:0], order)
	if cap(sc.maxCache) < n {
		sc.maxCache = make([]int, n)
		sc.maxMerge = make([]int, n)
	}
	sc.maxCache = sc.maxCache[:n]
	sc.maxMerge = sc.maxMerge[:n]
	mergeMax := ev.cfg.MergeCap
	if mergeMax < 2 {
		mergeMax = 2
	}
	an := ev.analyzer()
	for pos := 0; pos < n; pos++ {
		m := 0
		if ev.cfg.EnableCache {
			for l := 1; pos+l <= n; l++ {
				if !an.CanCache(order[pos : pos+l]) {
					break // a longer span contains the same violation
				}
				m = l
			}
		}
		sc.maxCache[pos] = m
		mm := 0
		if ev.cfg.EnableMerge {
			for l := 2; l <= mergeMax && pos+l <= n; l++ {
				if !an.CanMerge(order[pos : pos+l]) {
					break
				}
				mm = l
			}
		}
		sc.maxMerge[pos] = mm
	}
	need := (n + 1) * (n + 1)
	if cap(sc.keyLen) < need {
		sc.keyLen = make([]int, need)
	}
	sc.keyLen = sc.keyLen[:need]
	for i := range sc.keyLen {
		sc.keyLen[i] = -1
	}
}

// keyLenFor returns len(an.CacheKey(order[start:start+l])), computing it
// at most once per (order, start, l).
func (sc *evalScratch) keyLenFor(ev *Evaluator, order []string, start, l int) int {
	slot := start*(sc.n+1) + l
	if kl := sc.keyLen[slot]; kl >= 0 {
		return kl
	}
	kl := len(ev.analyzer().CacheKey(order[start : start+l]))
	sc.keyLen[slot] = kl
	return kl
}

// segmentations visits every way to assign disjoint contiguous cache and
// merge segments over the prepared order (§4.2: "for each top-k pipelet,
// Pipeleon computes all possible optimizations for each technique
// independently [and] enumerates all valid combinations"), at most max of
// them. Merging and caching never apply to the same table, which
// disjointness enforces. The slice passed to visit is reused between calls.
func (sc *evalScratch) segmentations(max int, visit func(segs []Segment)) {
	segs := sc.segs[:0]
	emitted := 0
	var rec func(pos int)
	rec = func(pos int) {
		if emitted >= max {
			return
		}
		if pos == sc.n {
			emitted++
			visit(segs)
			return
		}
		// (a) leave the table at pos untouched.
		rec(pos + 1)
		// (b) cache segment starting here.
		for l := 1; l <= sc.maxCache[pos]; l++ {
			segs = append(segs, Segment{Kind: SegCache, Start: pos, Len: l})
			rec(pos + l)
			segs = segs[:len(segs)-1]
		}
		// (c) merge segment starting here.
		for l := 2; l <= sc.maxMerge[pos]; l++ {
			segs = append(segs, Segment{Kind: SegMerge, Start: pos, Len: l})
			rec(pos + l)
			segs = segs[:len(segs)-1]
		}
	}
	rec(0)
	sc.segs = segs[:0]
}

// LocalOptimize enumerates and scores all candidates for one pipelet
// (Figure 16, LocalOptimize). The returned options are sorted by gain
// descending, truncated to cfg.MaxOptionsPerPipelet, and exclude
// candidates with non-positive gain (the implicit "do nothing" option is
// always available to the global search).
//
// Enumeration and scoring are fused: each segmentation is evaluated
// against the dense evaluator in place, and only candidates that clear the
// gain threshold materialize an Option.
func (ev *Evaluator) LocalOptimize(p *pipelet.Pipelet) []*Option {
	if p.SwitchCase || p.Len() == 0 {
		return nil
	}
	tables := p.Tables
	var orders [][]string
	if ev.cfg.EnableReorder {
		orders = enumerateOrders(ev.analyzer(), tables, ev.dropByName, ev.cfg.MaxOrders)
	} else {
		orders = [][]string{append([]string(nil), tables...)}
	}
	sc := evalScratchPool.Get().(*evalScratch)
	defer evalScratchPool.Put(sc)
	sc.prepareOrder(ev, tables)
	baseline := ev.seqLatencyIdx(tables, sc.orderIdx, nil)
	reach := ev.reachOf(p.Head())
	maxSegs := ev.cfg.MaxSegmentations
	if maxSegs <= 0 {
		maxSegs = 20000
	}
	var options []*Option
	for oi, order := range orders {
		sc.prepareOrder(ev, order)
		sc.segmentations(maxSegs, func(segs []Segment) {
			if oi == 0 && len(segs) == 0 {
				return // identity
			}
			lat := ev.seqLatencyIdx(order, sc.orderIdx, segs)
			gain := (baseline - lat) * reach
			if gain > 1e-12 {
				var segsCopy []Segment
				if len(segs) > 0 {
					segsCopy = append([]Segment(nil), segs...)
				}
				o := &Option{Kind: OptPipelet, Pipelet: p, Order: order, Segments: segsCopy, Gain: gain}
				o.MemCost, o.UpdateCost = ev.segCostsIdx(sc, order, sc.orderIdx, segsCopy)
				options = append(options, o)
			}
		})
	}
	sort.SliceStable(options, func(i, j int) bool { return options[i].Gain > options[j].Gain })
	if len(options) > ev.cfg.MaxOptionsPerPipelet {
		options = options[:ev.cfg.MaxOptionsPerPipelet]
	}
	return options
}
