package opt

import (
	"math"
	"slices"
	"sort"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/deps"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/pipelet"
	"pipeleon/internal/profile"
)

// Evaluator is the optimizer's one reading of (program, profile, cost
// model): every per-node quantity of the §3.1 formula, laid out in dense
// slices by the program's p4ir.Index ID (node names in ascending order),
// with the graph as the index holds it. Every estimate of a round — pipelet
// layouts, group caches, re-scores, the pipelet ranking, the baseline, the
// tier-aware estimate — is an integral over these arrays, so this file is
// the only place in the package that asks the profile for a probability or
// the cost model for a node latency. The view has three layers by lifetime:
// what only the program's structure fixes (built once), what its table
// entries fix (readEntries, again whenever they changed), and what the
// profile fixes (refresh, once per round) — which is what lets a warm
// Session reuse one Evaluator across rounds. A view belongs to one
// goroutine at a time: pricing works in its scratch. Every cost term comes
// from the target's kernel; the view decides only what weighs it.
type Evaluator struct {
	prog *p4ir.Program
	prof *profile.Profile
	kern costmodel.Kernel
	cfg  Config

	// an is built on first use: the tier-aware and ranking integrals never
	// need it, and a one-shot estimate must not pay for it.
	an *deps.Analyzer
	// ids holds a group member's node IDs while the analyzer reads them.
	ids []int32
	// scratch is price's working state, kept from pipelet to pipelet.
	scratch evalScratch

	// ix numbers the nodes; every slice below is by its ID, and
	// table-only quantities are zero at a conditional's.
	ix *p4ir.Index

	// Structural quantities (program + cost model, fixed for the
	// Evaluator's lifetime).
	exact []bool
	// Entry-dependent quantities, re-read by readEntries: a table's match
	// complexity counts the distinct masks and prefix lengths among its
	// entries, which p4ir's entry operations edit in place.
	// matchLat / actLat split each table's latency into the key-match part
	// (Kernel.Match) and the expected action part (Σ P(a)·n_a·Lact).
	matchLat []float64
	entries  []int
	mcomp    []int
	memBytes []int
	// topo lists the nodes reachable from the root in topological order;
	// empty for a program that has none (ix.Err says why).
	topo []int32

	// Profile-dependent quantities, recomputed in place by refresh.
	reach    []float64
	dropRate []float64
	actLat   []float64
	card     []uint64
	updRate  []float64
	// share[k] is the fraction of the traffic leaving edge k's source node
	// (p4ir.Index.EdgeOff) that takes edge k.
	share []float64
}

// NewEvaluator derives the cost view of prog under prof and pm. The
// dependency analyzer the candidate enumeration needs is built on first
// use, so a caller that only wants estimates (HeteroLatency under several
// placements, say) holds a cheap value.
func NewEvaluator(prog *p4ir.Program, prof *profile.Profile, pm costmodel.Params, cfg Config) *Evaluator {
	ev := &Evaluator{prog: prog, kern: pm.Kernel(), cfg: cfg, ix: p4ir.NewIndex(prog)}
	n := ev.ix.Len()
	ev.matchLat = make([]float64, n)
	ev.entries = make([]int, n)
	ev.exact = make([]bool, n)
	ev.mcomp = make([]int, n)
	ev.memBytes = make([]int, n)
	ev.readEntries()
	if ev.ix.Err() == nil {
		ev.topo = ev.ix.Topo()
	}
	ev.reach = make([]float64, n)
	ev.dropRate = make([]float64, n)
	ev.actLat = make([]float64, n)
	ev.card = make([]uint64, n)
	ev.updRate = make([]float64, n)
	ev.share = make([]float64, ev.ix.EdgeOff(int32(n)))
	ev.refresh(prof)
	return ev
}

// readEntries reads what the view holds of the tables' entries. The holder
// of a long-lived view calls it again when the entries changed (a Session
// follows its program's entry version).
func (ev *Evaluator) readEntries() {
	for _, i := range ev.ix.Tables() {
		t := ev.ix.Table(i)
		ev.exact[i] = t.WidestMatchKind() == p4ir.MatchExact // keys only: fixed
		ev.mcomp[i], ev.matchLat[i] = ev.kern.Match(t)
		ev.entries[i] = max(len(t.Entries), 1) // an empty table counts as one entry in a merge product
		ev.memBytes[i] = t.MemoryBytes()
	}
}

// refresh recomputes the profile-dependent quantities in place, reusing
// the dense backing arrays — the one walk of the profile a round makes. A
// warm session's per-round evaluator cost is therefore the per-table model
// math, not allocation. Reach comes from the
// profile's own propagation — re-deriving it from the edge shares would
// sum mass·(p₁+p₂) where ReachProbs sums mass·p₁ + mass·p₂ — and
// everything else of a table from one ActionProb.
func (ev *Evaluator) refresh(prof *profile.Profile) {
	ev.prof = prof
	clear(ev.reach)
	prof.ReachProbsAlong(ev.ix, ev.reach)
	for _, i := range ev.ix.Tables() {
		t := ev.ix.Table(i)
		probs := prof.ActionProb(t)
		var act, drop float64
		for _, a := range t.Actions {
			act += probs[a.Name] * float64(a.NumPrimitives()) * ev.kern.Act
			if a.Drops() {
				drop += probs[a.Name]
			}
		}
		ev.actLat[i] = act
		ev.dropRate[i] = drop
		ev.card[i] = prof.Cardinality(t.Name, defaultCardinality)
		ev.updRate[i] = prof.UpdateRate(t.Name)
		sh := ev.shares(i)
		if !t.IsSwitchCase() {
			if len(sh) > 0 {
				sh[0] = 1 - drop
			}
			continue
		}
		clear(sh)
		for _, a := range t.Actions {
			if !a.Drops() {
				ev.addShare(i, t.NextFor(a.Name), probs[a.Name])
			}
		}
	}
	for _, i := range ev.ix.Conds() {
		c := ev.ix.Cond(i)
		pt := prof.BranchProb(ev.ix.Name(i))
		clear(ev.shares(i))
		ev.addShare(i, c.TrueNext, pt)
		ev.addShare(i, c.FalseNext, 1-pt)
	}
}

// shares returns the shares of node i's edges, in Index.Succ order.
func (ev *Evaluator) shares(i int32) []float64 { return ev.share[ev.ix.EdgeOff(i):ev.ix.EdgeOff(i+1)] }

// addShare adds p to the share of node i's edge to the named node, if
// there is one.
func (ev *Evaluator) addShare(i int32, to string, p float64) {
	if k := slices.Index(ev.ix.Succ(i), ev.ix.ID(to)); k >= 0 {
		ev.shares(i)[k] += p
	}
}

// analyzer returns the dependency analyzer over the view's node IDs,
// building it on first use.
func (ev *Evaluator) analyzer() *deps.Analyzer {
	if ev.an == nil {
		ev.an = deps.New(ev.ix)
	}
	return ev.an
}

func (ev *Evaluator) reachOf(name string) float64 {
	if i := ev.ix.ID(name); i >= 0 {
		return ev.reach[i]
	}
	return 0
}

// appendIdx appends the dense indices of the named tables to dst. Options
// and pipelets carry names; this is where they enter the index space.
func (ev *Evaluator) appendIdx(dst []int32, names []string) []int32 {
	for _, t := range names {
		dst = append(dst, ev.ix.ID(t))
	}
	return dst
}

// nodeLat is L(v) of Equation 3 for node i: match plus expected action
// latency for a table, the branch cost for a conditional.
func (ev *Evaluator) nodeLat(i int) float64 {
	if ev.ix.Table(int32(i)) != nil {
		return ev.matchLat[i] + ev.actLat[i]
	}
	return ev.kern.Cond
}

// baseline is the expected latency of the program as it stands, Σ_v
// P(reach v)·L(v) — costmodel.ExpectedLatency over the view, bit for bit.
func (ev *Evaluator) baseline() float64 {
	var total float64
	for i, r := range ev.reach {
		total += r * ev.nodeLat(i)
	}
	return total
}

// rank computes every pipelet's weighted cost L(G')·P(G') (§4.1.2) and
// returns them sorted descending — the weighted-cost ranking, over the view.
func (ev *Evaluator) rank(part *pipelet.Partition) []pipelet.Cost {
	costs := make([]pipelet.Cost, 0, len(part.Pipelets))
	for _, p := range part.Pipelets {
		var w float64
		for _, tbl := range p.Tables {
			if i := int(ev.ix.ID(tbl)); i >= 0 {
				w += ev.reach[i] * ev.nodeLat(i)
			}
		}
		costs = append(costs, pipelet.Cost{Pipelet: p, Weighted: w})
	}
	sort.SliceStable(costs, func(i, j int) bool { return costs[i].Weighted > costs[j].Weighted })
	return costs
}

// spanStatsIdx aggregates the model quantities of a table span: the original
// per-entering-packet cost, the expected combined action cost, and the
// span's aggregate drop probability. Within the span, traffic surviving
// table i proceeds to table i+1.
func (ev *Evaluator) spanStatsIdx(span []int32) (origCost, actSum, dropProb float64) {
	flow := 1.0
	for _, ti := range span {
		origCost += flow * (ev.matchLat[ti] + ev.actLat[ti])
		actSum += flow * ev.actLat[ti]
		flow *= 1 - ev.dropRate[ti]
	}
	return origCost, actSum, 1 - flow
}

// workingSetIdx is the cross-product cardinality of a span's cache key
// (§3.2.2: "n header fields could produce up to S1·S2·...·Sn cache
// entries"), saturating to avoid overflow. Because every cache key is a
// function of the packet's flow, the working set is additionally bounded
// by the observed flow cardinality — a handful of long-lived flows keeps
// even a whole-program cache hot regardless of the field cross-product.
func (ev *Evaluator) workingSetIdx(span []int32) uint64 {
	const sat = 1 << 40
	ws := uint64(1)
	for _, ti := range span {
		c := ev.card[ti]
		if c == 0 {
			c = 1
		}
		if ws > sat/c {
			ws = sat
			break
		}
		ws *= c
	}
	if fc := ev.prof.FlowCardinality; fc > 0 && fc < ws {
		ws = fc
	}
	return ws
}

// allExactIdx reports whether every table in the span matches exactly.
func (ev *Evaluator) allExactIdx(span []int32) bool {
	for _, ti := range span {
		if !ev.exact[ti] {
			return false
		}
	}
	return true
}

// mergedMIdx is the match complexity of an in-place (non-cache) merge:
// each combination of member masks is a distinct mask of the merged table,
// so m multiplies (capped). Merging ternary tables therefore usually loses
// — exactly the hazard Figure 6 illustrates — and such candidates fall out
// of the search on gain.
func (ev *Evaluator) mergedMIdx(span []int32) int {
	const cap = 64
	m := 1
	for _, ti := range span {
		m *= ev.mcomp[ti]
		if m > cap {
			return cap
		}
	}
	return m
}

// hitEstimate resolves the estimated hit rate of a cache over a span; key
// is the span's SpanKey, under which the runtime files observed rates.
func (ev *Evaluator) hitEstimate(key string, span []int32) float64 {
	if h, ok := ev.cfg.HitRateOverride[key]; ok {
		return h
	}
	return ev.cfg.hitEstimateNoOverride(ev.workingSetIdx(span))
}

// invalidationDiscount applies the §3.2.2 cache-invalidation penalty:
// entry updates in any covered table invalidate the whole cache, so the
// hit estimate is discounted by the aggregate update rate.
func (ev *Evaluator) invalidationDiscount(h float64, span []int32) float64 {
	var upd float64
	for _, ti := range span {
		upd += ev.updRate[ti]
	}
	return h / (1 + upd*invalidationPenalty)
}

// spanPrice prices one transformed span for a packet entering it: the
// expected latency spent in it and the probability of leaving it alive.
// These are the reference expressions of §3.2.2/§3.2.3; every estimate of a
// cached or merged span, the price tables included, is this function's.
func (ev *Evaluator) spanPrice(kind SegKind, key string, span []int32) (cost, keep float64) {
	origCost, actSum, dropP := ev.spanStatsIdx(span)
	switch {
	case kind == SegCache:
		// One exact probe always; on a hit the combined action applies; on
		// a miss the packet falls through to the original tables.
		h := ev.invalidationDiscount(ev.hitEstimate(key, span), span)
		cost = ev.kern.CachedSpan(h, actSum, origCost)
	case ev.allExactIdx(span):
		// Merged-exact cache with fallback (§3.2.3: "Pipeleon addresses
		// this by generating a merged exact table without ternary entries
		// as a cache").
		h := mergedCacheHitRate
		if hh, ok := ev.cfg.HitRateOverride[key]; ok {
			h = hh
		}
		cost = ev.kern.CachedSpan(h, actSum, origCost)
	default:
		// In-place merge: one (multi-probe) match executes all member
		// actions.
		cost = float64(ev.mergedMIdx(span))*ev.kern.Mat + actSum
	}
	return cost, 1 - dropP
}

// seqLatencyIdx returns the expected per-packet latency of a pipelet layout
// for one packet entering the pipelet. It walks the order positions
// directly against the (position-sorted, disjoint) segments.
func (ev *Evaluator) seqLatencyIdx(order []string, idxs []int32, segs []Segment) float64 {
	flow := 1.0
	var total float64
	si := 0
	for i := 0; i < len(idxs); {
		if si < len(segs) && segs[si].Start == i {
			s := segs[si]
			si++
			cost, keep := ev.spanPrice(s.Kind, SpanKey(order[i:i+s.Len]), idxs[i:i+s.Len])
			total += flow * cost
			flow *= keep
			i += s.Len
		} else {
			ti := idxs[i]
			total += flow * (ev.matchLat[ti] + ev.actLat[ti])
			flow *= 1 - ev.dropRate[ti]
			i++
		}
	}
	return total
}

// evalScratch is the working state of pricing one pipelet: the price table
// of the order at hand, the selection's two buffers and sortPicks' digit
// counts.
type evalScratch struct {
	cost, keep []float64
	picks, tmp []pick
	hist       [8][256]uint32
}

// pick is one candidate that cleared the gain threshold: candidate c of
// order oi.
type pick struct {
	gain  float64
	oi, c int32
}

// sortPicks orders picks by gain descending, keeping arrival order among
// equal gains — a stable sort by gain over the enumeration. It is an LSD
// radix sort over the bits of the (positive) gains, which order as the
// gains do; a comparison sort was a quarter of a drifting search. The
// result is in one of the scratch's two buffers, the other becomes sc.tmp.
func (sc *evalScratch) sortPicks(a []pick) []pick {
	if len(a) < 2 {
		return a
	}
	tmp, hist := sc.tmp, &sc.hist
	if cap(tmp) < len(a) {
		tmp = make([]pick, len(a))
	}
	tmp = tmp[:len(a)]
	*hist = [8][256]uint32{}
	for i := range a {
		k := math.Float64bits(a[i].gain)
		for d := range hist {
			hist[d][byte(k>>(8*d))]++
		}
	}
	for d := range hist {
		h := &hist[d]
		if h[byte(math.Float64bits(a[0].gain)>>(8*d))] == uint32(len(a)) {
			continue // every gain has this byte
		}
		sum := uint32(0)
		for b := 255; b >= 0; b-- { // high bytes first: descending
			h[b], sum = sum, sum+h[b]
		}
		for i := range a {
			b := byte(math.Float64bits(a[i].gain) >> (8 * d))
			tmp[h[b]] = a[i]
			h[b]++
		}
		a, tmp = tmp, a
	}
	sc.tmp = tmp
	return a
}

// price is the per-round half of LocalOptimize: a pipelet's skeleton priced
// under the view. Per order, one table of (cost, keep) per untouched
// position and per legal span — spanPrice once per span, not once per
// candidate containing it — and each candidate is the sum over its items of
// flow·cost, flow the product of the keeps before it: seqLatencyIdx's own
// operations in its own order, so the gains are the same bits. Only the
// MaxOptionsPerPipelet best become Options, sharing the skeleton's Order
// and Segments.
func (ev *Evaluator) price(sk *skeleton) []*Option {
	if len(sk.orders) == 0 {
		return nil
	}
	sc := &ev.scratch
	orders := sk.orders
	if sk.blocked != nil {
		if os := sk.dropOrder(ev); os != nil {
			orders = []*orderSkel{orders[0], os}
		}
	}
	reach := ev.reachOf(sk.p.Head())
	// The best limit picks so far are kept among at most twice as many:
	// when the buffer fills it is sorted and cut to limit, and the last
	// survivor's gain becomes the bar — a later candidate that only ties it
	// comes after it in enumeration order and cannot displace it.
	limit, bar := ev.cfg.MaxOptionsPerPipelet, 1e-12
	picks := sc.picks[:0]
	var baseline float64
	for oi, os := range orders {
		sh := os.shape
		cost, keep := sc.cost[:0], sc.keep[:0]
		for _, ti := range os.idx {
			cost = append(cost, ev.matchLat[ti]+ev.actLat[ti])
			keep = append(keep, 1-ev.dropRate[ti])
		}
		for k, sp := range sh.spans {
			c, kp := ev.spanPrice(sp.Kind, os.keys[k], os.idx[sp.Start:sp.Start+sp.Len])
			cost, keep = append(cost, c), append(keep, kp)
		}
		sc.cost, sc.keep = cost, keep
		for c, lo := range sh.ends[:len(sh.ends)-1] {
			flow, lat := 1.0, 0.0
			for _, it := range sh.items[lo:sh.ends[c+1]] {
				lat += flow * cost[it]
				flow *= keep[it]
			}
			if oi == 0 && c == 0 {
				baseline = lat // the pipelet as it stands: every shape's first candidate is the untouched layout
				continue
			}
			if gain := (baseline - lat) * reach; gain > bar {
				picks = append(picks, pick{gain: gain, oi: int32(oi), c: int32(c)})
				if len(picks) == 2*limit {
					picks = sc.sortPicks(picks)
					picks, bar = picks[:limit], picks[limit-1].gain
				}
			}
		}
	}
	picks = sc.sortPicks(picks)
	picks = picks[:min(len(picks), limit)]
	sc.picks = picks
	if len(picks) == 0 {
		return nil
	}
	opts := make([]Option, len(picks))
	out := make([]*Option, len(picks))
	for i, pk := range picks {
		os := orders[pk.oi]
		o := &opts[i] // Kind is OptPipelet, the zero value
		o.Pipelet, o.Order, o.Segments, o.Gain = sk.p, os.order, os.shape.segments(int(pk.c)), pk.gain
		o.MemCost, o.UpdateCost = ev.segCosts(os, int(pk.c))
		out[i] = o
	}
	return out
}

// segCosts returns the memory and entry-update costs of candidate c of an
// order. They read the tables' entry counts, so they are computed for the
// survivors each round and never kept in the skeleton.
func (ev *Evaluator) segCosts(os *orderSkel, c int) (mem int, upd float64) {
	sh := os.shape
	for _, it := range sh.items[sh.ends[c]:sh.ends[c+1]] {
		k := int(it) - sh.n
		if k < 0 {
			continue
		}
		s := sh.spans[k]
		span := os.idx[s.Start : s.Start+s.Len]
		entryBytes := os.keyLen[k]*8 + 16
		switch s.Kind {
		case SegCache:
			mem += ev.cfg.CacheBudgetEntries * entryBytes
			// A cache consumes entry-insertion bandwidth on misses;
			// Pipeleon reserves its configured rate limit.
			upd += ev.cfg.CacheInsertLimit
		case SegMerge:
			// N(T_AB) = Π N(T_i) (§3.2.3 optimization considerations).
			prod := 1
			for _, ti := range span {
				n := ev.entries[ti]
				if prod > (1<<30)/n {
					prod = 1 << 30
					break
				}
				prod *= n
			}
			if ev.allExactIdx(span) {
				mem += prod * entryBytes
			} else {
				m := ev.mergedMIdx(span)
				merged := prod * entryBytes * m
				var orig int
				for _, ti := range span {
					orig += ev.memBytes[ti]
				}
				delta := merged - orig
				if delta > 0 {
					mem += delta
				}
			}
			// I(T_AB) = Σ_i I(T_i) · Π_{j≠i} N(T_j).
			for i, ti := range span {
				rate := ev.updRate[ti]
				if rate == 0 {
					continue
				}
				mult := 1.0
				for j, tj := range span {
					if j != i {
						mult *= float64(ev.entries[tj])
					}
				}
				upd += rate * mult
			}
		}
	}
	return mem, upd
}

// GroupOptions builds the candidates of a pipelet group (§4.1.1): the
// cross product of member options (joint application) plus a group-wide
// cache spanning the branch and every member, when legal.
func (ev *Evaluator) GroupOptions(g *pipelet.Group, memberOpts [][]*Option) []*Option {
	// Cross product of member choices (nil = leave member unchanged),
	// capped; at least one member must change. Member options arrive
	// sorted by gain descending and nil goes LAST, so when the cap
	// truncates the product, the best-of-each combination is the first
	// one enumerated and always survives. Combos are rows of one flat
	// slab per member level, k choices wide after member k.
	combos, count := []*Option(nil), 1
	for k, opts := range memberOpts {
		choices := append(opts[:len(opts):len(opts)], nil)
		n := max(min(count*len(choices), maxGroupCombos), 0)
		next := make([]*Option, 0, n*(k+1))
		for c := 0; c < count; c++ {
			for _, ch := range choices {
				if len(next) < n*(k+1) {
					next = append(append(next, combos[c*k:(c+1)*k]...), ch)
				}
			}
		}
		combos, count = next, n
	}
	w := len(memberOpts)
	slab := make([]Option, 0, count)
	out := make([]*Option, 0, count+1)
	for c := 0; c < count; c++ {
		members := combos[c*w : (c+1)*w : (c+1)*w]
		var gain, updC float64
		memC, changed := 0, false
		for _, ch := range members {
			if ch == nil {
				continue
			}
			changed = true
			gain += ch.Gain
			memC += ch.MemCost
			updC += ch.UpdateCost
		}
		if !changed {
			continue
		}
		slab = append(slab, Option{
			Kind: OptGroupCombo, Group: g, Members: members,
			Gain: gain, MemCost: memC, UpdateCost: updC,
		})
		out = append(out, &slab[len(slab)-1])
	}
	// Group-wide cache: legal when every member span is cacheable and the
	// entry branch is a conditional (a switch-case branch's per-action
	// jump cannot be reproduced by a single cached verdict).
	if ev.cfg.EnableCache {
		legal := true
		for _, bn := range g.Branches {
			if _, cond := ev.prog.Node(bn); cond == nil {
				legal = false
				break
			}
		}
		for _, m := range g.Members {
			if ev.ids = ev.appendIdx(ev.ids[:0], m.Tables); !ev.analyzer().CanCache(ev.ids) {
				legal = false
				break
			}
		}
		if legal {
			o := ev.groupCacheOption(g, ev.groupBranchFields(g))
			if o != nil && o.Gain > 1e-12 {
				out = append(out, o)
			}
		}
	}
	return out
}

// groupBranchFields collects the read fields of every internal branch —
// they join the group cache's key so the cached verdict reproduces the
// control flow.
func (ev *Evaluator) groupBranchFields(g *pipelet.Group) []string {
	seen := map[string]bool{}
	var out []string
	for _, bn := range g.Branches {
		if cond, ok := ev.prog.Conds[bn]; ok {
			for _, f := range cond.ReadFields {
				if !seen[f] {
					seen[f] = true
					out = append(out, f)
				}
			}
		}
	}
	return out
}

// groupCacheOption scores a cache covering the whole group: a hit replaces
// the group's entire reach-weighted cost (branches included) with one
// probe plus the combined action writes. Works for single diamonds and
// chained multi-diamond groups alike.
func (ev *Evaluator) groupCacheOption(g *pipelet.Group, branchFields []string) *Option {
	entryReach := ev.reachOf(g.Branch)
	if entryReach <= 0 {
		return nil
	}
	allTables := g.Tables()
	span := ev.appendIdx(make([]int32, 0, len(allTables)), allTables)
	// Conditional (per-entering-packet) expected cost of the group: the
	// reach-weighted node costs of members and internal branches,
	// normalized by the entry reach.
	var weighted, weightedAct float64
	for _, ti := range span {
		weighted += ev.reach[ti] * (ev.matchLat[ti] + ev.actLat[ti])
		weightedAct += ev.reach[ti] * ev.actLat[ti]
	}
	for _, bn := range g.Branches {
		weighted += ev.reachOf(bn) * ev.kern.Cond
	}
	baseline := weighted / entryReach
	actSum := weightedAct / entryReach

	h := ev.invalidationDiscount(ev.hitEstimate(SpanKey(allTables), span), span)
	cached := ev.kern.CachedSpan(h, actSum, baseline)
	gain := (baseline - cached) * entryReach
	keyFields := ev.analyzer().CacheKey(span)
	entryBytes := (len(keyFields)+len(branchFields))*8 + 16
	return &Option{
		Kind: OptGroupCache, Group: g,
		Gain:       gain,
		MemCost:    ev.cfg.CacheBudgetEntries * entryBytes,
		UpdateCost: ev.cfg.CacheInsertLimit,
	}
}
