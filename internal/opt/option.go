package opt

import (
	"fmt"
	"slices"
	"strings"

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

	// Gain is the expected reduction of whole-program latency in
	// nanoseconds (pipelet gain weighted by reach probability).
	Gain float64
	// MemCost is the extra memory in bytes the option consumes.
	MemCost int
	// UpdateCost is the extra entry-update bandwidth in ops/second.
	UpdateCost float64
}

// segTables returns the table names a segment covers.
func (o *Option) segTables(s Segment) []string {
	return o.Order[s.Start : s.Start+s.Len]
}

// String renders a compact human-readable form, e.g.
// "reorder[t3 t1 t2] cache[t3,t1]".
func (o *Option) String() string {
	switch o.Kind {
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
		fmt.Fprintf(&sb, " %s%v", s.Kind, o.segTables(s))
	}
	return sb.String()
}

// SpanKey is the canonical identity of a table span, used to key hit-rate
// overrides and generated table names.
func SpanKey(tables []string) string { return strings.Join(tables, "+") }

// enumerateOrders returns the dependency-valid permutations of tables,
// capped at maxOrders, the original order first. A pipelet too long to
// permute exhaustively (n! > maxOrders) yields its original order alone and
// exhaustive = false: its one alternative, the greedy drop-sorted order,
// follows the profile and is derived per round (skeleton.dropOrder).
func enumerateOrders(ev *Evaluator, tables []string, maxOrders int) (orders [][]string, exhaustive bool) {
	n := len(tables)
	orders = [][]string{slices.Clone(tables)}
	if n < 2 || !factorialAtMost(n, maxOrders) {
		return orders, n < 2
	}
	an, ids := ev.analyzer(), ev.appendIdx(nil, tables)
	perm, permIDs := make([]string, 0, n), make([]int32, 0, n)
	used := make([]bool, n)
	var rec func()
	rec = func() {
		if len(orders) >= maxOrders {
			return
		}
		if len(perm) == n {
			if !slices.Equal(perm, tables) && an.ValidOrder(ids, permIDs) {
				orders = append(orders, slices.Clone(perm))
			}
			return
		}
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			used[i] = true
			perm, permIDs = append(perm, tables[i]), append(permIDs, ids[i])
			rec()
			perm, permIDs = perm[:len(perm)-1], permIDs[:len(permIDs)-1]
			used[i] = false
		}
	}
	rec()
	return orders, true
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

// orderDeps is the dependency matrix the greedy order consults: row j,
// column i (j < i) says table i must stay behind table j.
func orderDeps(ev *Evaluator, tables []string) [][]bool {
	an, ids := ev.analyzer(), ev.appendIdx(nil, tables)
	blocked := make([][]bool, len(ids))
	for j := range ids {
		blocked[j] = make([]bool, len(ids))
		for i := j + 1; i < len(ids); i++ {
			blocked[j][i] = an.Dependency(ids[j], ids[i]) != deps.DepNone
		}
	}
	return blocked
}

// greedyDropOrder builds a dependency-valid order, as a permutation of
// positions, that promotes tables with higher drop rates to earlier
// positions (§3.2.1: "Pipeleon promotes tables with higher dropping rates
// to earlier parts of the program"): repeatedly place the highest-drop
// table whose original-order predecessors with dependencies have all been
// placed.
func greedyDropOrder(blocked [][]bool, drop func(i int) float64) []int {
	n := len(blocked)
	placed := make([]bool, n)
	out := make([]int, 0, n)
	ready := func(i int) bool {
		for j := 0; j < i; j++ {
			if !placed[j] && blocked[j][i] {
				return false
			}
		}
		return true
	}
	for len(out) < n {
		best := -1
		for i := 0; i < n; i++ {
			if !placed[i] && ready(i) && (best == -1 || drop(i) > drop(best)+1e-12) {
				best = i
			}
		}
		placed[best] = true
		out = append(out, best)
	}
	return out
}

// skeleton is the profile-independent half of one pipelet's candidate
// space (§4.2): its dependency-valid orders and, per order, the legal cache
// and merge spans and every segmentation over them. It reads the program,
// the dependency analysis and the structural config fields (EnableReorder/
// Cache/Merge, MaxOrders, MaxSegmentations, MergeCap) — no profile, no cost
// model, no table entry — so it is built once per pipelet and priced every
// round (Evaluator.price).
type skeleton struct {
	p      *pipelet.Pipelet
	orders []*orderSkel // the exhaustively enumerated orders, the pipelet's own first
	// blocked is set for a pipelet too long to permute: its second order is
	// the greedy drop-sorted one, which follows the profile. dropSorted
	// keeps the last one built, so a drop order that holds from round to
	// round is analyzed once.
	blocked    [][]bool
	dropSorted *orderSkel
}

// orderSkel is one table order of a pipelet: the dense view indices of its
// tables and, for every legal span of its shape, what pricing and costing
// need of the span's identity.
type orderSkel struct {
	order  []string
	idx    []int32
	shape  *shape
	keyLen []int    // per shape span: fields in the covering cache key
	keys   []string // per shape span: SpanKey, the HitRateOverride key
}

// shape is the segmentation structure of an order: which spans are legal
// and every way to lay disjoint ones over the n positions. It depends on
// the order only through the longest legal cache and merge span per
// position, so the orders of a pipelet that agree on those share one.
type shape struct {
	n     int
	legal []int // longest legal cache span per position, then longest merge span
	spans []Segment
	// Candidate c is items[ends[c]:ends[c+1]], in position order: an item
	// below n is the untouched table at that position, item n+k is
	// spans[k]. Its segments are segs[segEnds[c]:segEnds[c+1]] — immutable,
	// and what a surviving Option's Segments points at.
	items   []uint16
	ends    []uint32
	segs    []Segment
	segEnds []uint32
}

// segments returns candidate c's segments (nil for none).
func (sh *shape) segments(c int) []Segment {
	if lo, hi := sh.segEnds[c], sh.segEnds[c+1]; lo < hi {
		return sh.segs[lo:hi:hi]
	}
	return nil
}

// newSkeleton analyzes one pipelet. Of the view it reads what every view of
// the program has alike: the dependency analyzer, the dense node index, the
// structural config fields.
func newSkeleton(ev *Evaluator, p *pipelet.Pipelet) *skeleton {
	sk := &skeleton{p: p}
	if p.SwitchCase || p.Len() == 0 {
		return sk
	}
	orders, exhaustive := [][]string{slices.Clone(p.Tables)}, true
	if ev.cfg.EnableReorder {
		orders, exhaustive = enumerateOrders(ev, p.Tables, ev.cfg.MaxOrders)
	}
	if !exhaustive {
		sk.blocked = orderDeps(ev, p.Tables)
	}
	var shapes []*shape
	for _, order := range orders {
		sk.orders = append(sk.orders, newOrderSkel(ev, order, &shapes))
	}
	return sk
}

// dropOrder returns the greedy drop-sorted order of a long pipelet under
// the view's drop rates, or nil when that is the pipelet's own order.
func (sk *skeleton) dropOrder(ev *Evaluator) *orderSkel {
	own := sk.orders[0]
	perm := greedyDropOrder(sk.blocked, func(i int) float64 { return ev.dropRate[own.idx[i]] })
	order := make([]string, len(perm))
	same := true
	for k, i := range perm {
		order[k] = own.order[i]
		same = same && k == i
	}
	if same {
		return nil
	}
	if sk.dropSorted == nil || !slices.Equal(sk.dropSorted.order, order) {
		sk.dropSorted = newOrderSkel(ev, order, new([]*shape))
	}
	return sk.dropSorted
}

// newOrderSkel analyzes one order. The deps checks are monotone over
// prefixes (a longer span contains the same violation), so the longest
// legal span per position says which spans are legal; shapes collects the
// pipelet's shapes built so far.
func newOrderSkel(ev *Evaluator, order []string, shapes *[]*shape) *orderSkel {
	an, cfg, n := ev.analyzer(), ev.cfg, len(order)
	os := &orderSkel{order: order, idx: ev.appendIdx(nil, order)}
	mergeMax := max(cfg.MergeCap, 2)
	legal := make([]int, 2*n)
	for pos := 0; pos < n; pos++ {
		if cfg.EnableCache {
			for l := 1; pos+l <= n && an.CanCache(os.idx[pos:pos+l]); l++ {
				legal[pos] = l
			}
		}
		if cfg.EnableMerge {
			for l := 2; l <= mergeMax && pos+l <= n && an.CanMerge(os.idx[pos:pos+l]); l++ {
				legal[n+pos] = l
			}
		}
	}
	if i := slices.IndexFunc(*shapes, func(sh *shape) bool { return slices.Equal(sh.legal, legal) }); i >= 0 {
		os.shape = (*shapes)[i]
	} else {
		os.shape = newShape(legal, cfg.MaxSegmentations)
		*shapes = append(*shapes, os.shape)
	}
	for _, sp := range os.shape.spans {
		os.keyLen = append(os.keyLen, len(an.CacheKey(os.idx[sp.Start:sp.Start+sp.Len])))
		os.keys = append(os.keys, SpanKey(order[sp.Start:sp.Start+sp.Len]))
	}
	return os
}

// newShape lists every way to assign disjoint contiguous cache and merge
// segments over n positions (§4.2: "for each top-k pipelet, Pipeleon
// computes all possible optimizations for each technique independently
// [and] enumerates all valid combinations"), at most maxSegs of them (<= 0:
// 20000), the untouched layout first. Merging and caching never apply to
// the same table, which disjointness enforces.
func newShape(legal []int, maxSegs int) *shape {
	n := len(legal) / 2
	sh := &shape{n: n, legal: legal, ends: []uint32{0}, segEnds: []uint32{0}}
	if maxSegs <= 0 {
		maxSegs = 20000
	}
	spanID := map[Segment]uint16{}
	item := func(sp Segment) uint16 {
		id, ok := spanID[sp]
		if !ok {
			id = uint16(n + len(sh.spans))
			spanID[sp] = id
			sh.spans = append(sh.spans, sp)
		}
		return id
	}
	var path []uint16
	var rec func(pos int)
	rec = func(pos int) {
		if len(sh.ends) > maxSegs {
			return
		}
		if pos == n {
			sh.items = append(sh.items, path...)
			sh.ends = append(sh.ends, uint32(len(sh.items)))
			for _, it := range path {
				if int(it) >= n {
					sh.segs = append(sh.segs, sh.spans[int(it)-n])
				}
			}
			sh.segEnds = append(sh.segEnds, uint32(len(sh.segs)))
			return
		}
		// (a) leave the table at pos untouched.
		path = append(path, uint16(pos))
		rec(pos + 1)
		path = path[:len(path)-1]
		// (b) cache segment starting here.
		for l := 1; l <= legal[pos]; l++ {
			path = append(path, item(Segment{Kind: SegCache, Start: pos, Len: l}))
			rec(pos + l)
			path = path[:len(path)-1]
		}
		// (c) merge segment starting here.
		for l := 2; l <= legal[n+pos]; l++ {
			path = append(path, item(Segment{Kind: SegMerge, Start: pos, Len: l}))
			rec(pos + l)
			path = path[:len(path)-1]
		}
	}
	rec(0)
	return sh
}
