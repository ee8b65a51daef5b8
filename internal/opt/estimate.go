package opt

import (
	"sort"
	"sync"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/deps"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/pipelet"
	"pipeleon/internal/profile"
)

// Evaluator is the optimizer's one reading of (program, profile, cost
// model): every per-node quantity of the §3.1 formula, laid out in dense
// slices over a stable node ordering (sorted tables, then sorted conds),
// together with the graph as indices. Every estimate of a round — pipelet
// layouts, group caches, re-scores, the pipelet ranking, the baseline, the
// tier-aware estimate — is an integral over these arrays, so this file is
// the only place in the package that asks the profile for a probability or
// the cost model for a node latency. refresh swaps in a new profile without
// rebuilding the static quantities, which is what lets a warm Session
// reuse one Evaluator across rounds; between refreshes the view is
// read-only and safe to share across goroutines.
type Evaluator struct {
	prog *p4ir.Program
	prof *profile.Profile
	pm   costmodel.Params
	cfg  Config

	// an is built on first use: the tier-aware and ranking integrals never
	// need it, and a one-shot estimate must not pay for it.
	an     *deps.Analyzer
	anOnce sync.Once

	// Stable dense node ordering: tables first (sorted), then conds
	// (sorted). Table-only quantities are zero at cond slots.
	nodeIdx   map[string]int
	nodeNames []string
	numTables int

	// Static quantities (program + cost model, fixed for the Evaluator's
	// lifetime).
	// matchLat / actLat split each table's latency into the key-match part
	// (Params.MatchLatency) and the expected action part (Σ P(a)·n_a·Lact).
	tables   []*p4ir.Table
	matchLat []float64
	entries  []int
	exact    []bool
	mcomp    []int
	memBytes []int
	// byName lists node indices in lexicographic name order — the order
	// costmodel.ExpectedLatency sums in, which baseline must reproduce to
	// stay bit-equal to it.
	byName []int
	// topo lists the nodes reachable from the root in topological order;
	// topoErr is the TopoOrder error of a program that has none.
	topo    []int
	topoErr error
	// Node i's successors are succ[succOff[i]:succOff[i+1]], in
	// Program.Successors order.
	succOff []int
	succ    []int

	// Profile-dependent quantities, recomputed in place by refresh.
	reach    []float64
	dropRate []float64
	actLat   []float64
	card     []uint64
	updRate  []float64
	// share[k] is the fraction of the traffic leaving succ[k]'s source
	// node that goes to succ[k].
	share []float64

	// dropByName mirrors dropRate under table names for the exported
	// order-enumeration API (GreedyDropOrder takes a name-keyed map).
	dropByName map[string]float64
}

// NewEvaluator derives the cost view of prog under prof and pm. The
// dependency analyzer the candidate enumeration needs is built on first
// use, so a caller that only wants estimates (HeteroLatency under several
// placements, say) holds a cheap value.
func NewEvaluator(prog *p4ir.Program, prof *profile.Profile, pm costmodel.Params, cfg Config) *Evaluator {
	return newEvaluator(prog, prof, pm, cfg, nil)
}

// newEvaluator is NewEvaluator with an injected dependency analyzer (nil
// builds one lazily), so many evaluators over one program (a sweep's
// points) share the analysis. The analyzer is eager and read-only after
// construction, hence safe to share across goroutines.
func newEvaluator(prog *p4ir.Program, prof *profile.Profile, pm costmodel.Params, cfg Config, an *deps.Analyzer) *Evaluator {
	ev := &Evaluator{prog: prog, pm: pm, cfg: cfg, an: an}
	tnames := make([]string, 0, len(prog.Tables))
	for name := range prog.Tables {
		tnames = append(tnames, name)
	}
	sort.Strings(tnames)
	cnames := make([]string, 0, len(prog.Conds))
	for name := range prog.Conds {
		cnames = append(cnames, name)
	}
	sort.Strings(cnames)
	nt := len(tnames)
	n := nt + len(cnames)
	ev.numTables = nt
	ev.nodeNames = append(append(make([]string, 0, n), tnames...), cnames...)
	ev.nodeIdx = make(map[string]int, n)
	for i, name := range ev.nodeNames {
		ev.nodeIdx[name] = i
	}
	ev.byName = make([]int, 0, n)
	for t, c := 0, nt; t < nt || c < n; {
		if c == n || (t < nt && ev.nodeNames[t] < ev.nodeNames[c]) {
			ev.byName = append(ev.byName, t)
			t++
		} else {
			ev.byName = append(ev.byName, c)
			c++
		}
	}
	ev.tables = make([]*p4ir.Table, nt)
	ev.matchLat = make([]float64, n)
	ev.entries = make([]int, n)
	ev.exact = make([]bool, n)
	ev.mcomp = make([]int, n)
	ev.memBytes = make([]int, n)
	for i, name := range tnames {
		t := prog.Tables[name]
		ev.tables[i] = t
		ev.matchLat[i] = pm.MatchLatency(t)
		ev.entries[i] = len(t.Entries)
		ev.exact[i] = t.WidestMatchKind() == p4ir.MatchExact
		ev.mcomp[i] = pm.MatchComplexity(t)
		ev.memBytes[i] = t.MemoryBytes()
	}
	ev.succOff = make([]int, n+1)
	for i, name := range ev.nodeNames {
		for _, s := range prog.Successors(name) {
			if j, ok := ev.nodeIdx[s]; ok {
				ev.succ = append(ev.succ, j)
			}
		}
		ev.succOff[i+1] = len(ev.succ)
	}
	order, err := prog.TopoOrder()
	ev.topoErr = err
	ev.topo = make([]int, len(order))
	for k, name := range order {
		ev.topo[k] = ev.nodeIdx[name]
	}
	ev.reach = make([]float64, n)
	ev.dropRate = make([]float64, n)
	ev.actLat = make([]float64, n)
	ev.card = make([]uint64, n)
	ev.updRate = make([]float64, n)
	ev.share = make([]float64, len(ev.succ))
	ev.dropByName = make(map[string]float64, nt)
	ev.refresh(prof)
	return ev
}

// refresh recomputes the profile-dependent quantities in place, reusing
// the dense backing arrays. A warm session's per-round evaluator cost is
// therefore the per-table model math, not allocation. Reach comes from the
// profile's own propagation — re-deriving it from the edge shares would
// sum mass·(p₁+p₂) where ReachProbs sums mass·p₁ + mass·p₂ — and
// everything else of a table from one ActionProb.
func (ev *Evaluator) refresh(prof *profile.Profile) {
	ev.prof = prof
	clear(ev.reach)
	for name, v := range prof.ReachProbs(ev.prog) {
		if i, ok := ev.nodeIdx[name]; ok {
			ev.reach[i] = v
		}
	}
	for i, t := range ev.tables {
		probs := prof.ActionProb(t)
		var act, drop float64
		for _, a := range t.Actions {
			act += probs[a.Name] * float64(a.NumPrimitives()) * ev.pm.Lact
			if a.Drops() {
				drop += probs[a.Name]
			}
		}
		ev.actLat[i] = act
		ev.dropRate[i] = drop
		ev.dropByName[t.Name] = drop
		ev.card[i] = prof.Cardinality(t.Name, ev.cfg.DefaultCardinality)
		ev.updRate[i] = prof.UpdateRate(t.Name)
		lo, hi := ev.succOff[i], ev.succOff[i+1]
		if !t.IsSwitchCase() {
			if lo < hi {
				ev.share[lo] = 1 - drop
			}
			continue
		}
		clear(ev.share[lo:hi])
		for _, a := range t.Actions {
			if !a.Drops() {
				ev.addShare(lo, hi, t.NextFor(a.Name), probs[a.Name])
			}
		}
	}
	for i := ev.numTables; i < len(ev.nodeNames); i++ {
		name := ev.nodeNames[i]
		c := ev.prog.Conds[name]
		pt := prof.BranchProb(name)
		lo, hi := ev.succOff[i], ev.succOff[i+1]
		clear(ev.share[lo:hi])
		ev.addShare(lo, hi, c.TrueNext, pt)
		ev.addShare(lo, hi, c.FalseNext, 1-pt)
	}
}

// addShare adds p to the share of the edge among succ[lo:hi] that leads to
// the named node, if there is one.
func (ev *Evaluator) addShare(lo, hi int, to string, p float64) {
	if j, ok := ev.nodeIdx[to]; ok {
		for k := lo; k < hi; k++ {
			if ev.succ[k] == j {
				ev.share[k] += p
			}
		}
	}
}

// analyzer returns the dependency analyzer, building it on first use.
func (ev *Evaluator) analyzer() *deps.Analyzer {
	ev.anOnce.Do(func() {
		if ev.an == nil {
			ev.an = deps.NewAnalyzer(ev.prog)
		}
	})
	return ev.an
}

// idxOf returns a node's dense index, or -1 for unknown names.
func (ev *Evaluator) idxOf(name string) int {
	if i, ok := ev.nodeIdx[name]; ok {
		return i
	}
	return -1
}

func (ev *Evaluator) reachOf(name string) float64 {
	if i := ev.idxOf(name); i >= 0 {
		return ev.reach[i]
	}
	return 0
}

// appendIdx appends the dense indices of the named tables to dst. Options
// and pipelets carry names; this is where they enter the index space.
func (ev *Evaluator) appendIdx(dst []int, names []string) []int {
	for _, t := range names {
		dst = append(dst, ev.nodeIdx[t])
	}
	return dst
}

// nodeLat is L(v) of Equation 3 for node i: match plus expected action
// latency for a table, the branch cost for a conditional.
func (ev *Evaluator) nodeLat(i int) float64 {
	if i < ev.numTables {
		return ev.matchLat[i] + ev.actLat[i]
	}
	return ev.pm.CondLatency()
}

// baseline is the expected latency of the program as it stands, Σ_v
// P(reach v)·L(v) — costmodel.ExpectedLatency over the view, bit for bit.
func (ev *Evaluator) baseline() float64 {
	var total float64
	for _, i := range ev.byName {
		total += ev.reach[i] * ev.nodeLat(i)
	}
	return total
}

// rank computes every pipelet's weighted cost L(G')·P(G') (§4.1.2) and
// returns them sorted descending — pipelet.RankByCost over the view.
func (ev *Evaluator) rank(part *pipelet.Partition) []pipelet.Cost {
	costs := make([]pipelet.Cost, 0, len(part.Pipelets))
	for _, p := range part.Pipelets {
		var w float64
		for _, tbl := range p.Tables {
			if i := ev.idxOf(tbl); i >= 0 {
				w += ev.reach[i] * ev.nodeLat(i)
			}
		}
		costs = append(costs, pipelet.Cost{Pipelet: p, Weighted: w, Reach: ev.reachOf(p.Head())})
	}
	sort.SliceStable(costs, func(i, j int) bool { return costs[i].Weighted > costs[j].Weighted })
	return costs
}

// spanStatsIdx aggregates the model quantities of a table span: the original
// per-entering-packet cost, the expected combined action cost, and the
// span's aggregate drop probability. Within the span, traffic surviving
// table i proceeds to table i+1.
func (ev *Evaluator) spanStatsIdx(span []int) (origCost, actSum, dropProb float64) {
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
func (ev *Evaluator) workingSetIdx(span []int) uint64 {
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
func (ev *Evaluator) allExactIdx(span []int) bool {
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
func (ev *Evaluator) mergedMIdx(span []int) int {
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

// hitEstimateIdx resolves the estimated hit rate of a cache over a span.
// The span-key string only exists to key HitRateOverride, so it is built
// only when overrides are present — the common no-override hot path is
// allocation-free.
func (ev *Evaluator) hitEstimateIdx(spanNames []string, span []int) float64 {
	if len(ev.cfg.HitRateOverride) > 0 {
		if h, ok := ev.cfg.HitRateOverride[SpanKey(spanNames)]; ok {
			return h
		}
	}
	return ev.cfg.hitEstimateNoOverride(ev.workingSetIdx(span))
}

// invalidationDiscount applies the §3.2.2 cache-invalidation penalty:
// entry updates in any covered table invalidate the whole cache, so the
// hit estimate is discounted by the aggregate update rate.
func (ev *Evaluator) invalidationDiscount(h float64, span []int) float64 {
	if ev.cfg.InvalidationPenalty > 0 {
		var upd float64
		for _, ti := range span {
			upd += ev.updRate[ti]
		}
		h /= 1 + upd*ev.cfg.InvalidationPenalty
	}
	return h
}

// seqLatencyIdx returns the expected per-packet latency of a pipelet layout
// for one packet entering the pipelet. It walks the order positions
// directly against the (position-sorted, disjoint) segments, so nothing is
// built per candidate.
func (ev *Evaluator) seqLatencyIdx(order []string, idxs []int, segs []Segment) float64 {
	flow := 1.0
	var total float64
	si := 0
	for i := 0; i < len(idxs); {
		if si < len(segs) && segs[si].Start == i {
			s := segs[si]
			si++
			span := idxs[i : i+s.Len]
			origCost, actSum, dropP := ev.spanStatsIdx(span)
			if s.Kind == SegCache {
				// One exact probe always; on a hit the combined action
				// applies; on a miss the packet falls through to the
				// original tables.
				h := ev.hitEstimateIdx(order[i:i+s.Len], span)
				h = ev.invalidationDiscount(h, span)
				total += flow * (ev.pm.Lmat + h*actSum + (1-h)*origCost)
			} else if ev.allExactIdx(span) {
				// Merged-exact cache with fallback (§3.2.3: "Pipeleon
				// addresses this by generating a merged exact table
				// without ternary entries as a cache").
				h := ev.cfg.MergedCacheHitRate
				if len(ev.cfg.HitRateOverride) > 0 {
					if hh, ok := ev.cfg.HitRateOverride[SpanKey(order[i:i+s.Len])]; ok {
						h = hh
					}
				}
				total += flow * (ev.pm.Lmat + h*actSum + (1-h)*origCost)
			} else {
				// In-place merge: one (multi-probe) match executes all
				// member actions.
				m := ev.mergedMIdx(span)
				total += flow * (float64(m)*ev.pm.Lmat + actSum)
			}
			flow *= 1 - dropP
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

// segCostsIdx returns the memory and entry-update costs of a layout's
// segments; span key-field counts come from the per-order scratch cache
// instead of recomputing an.CacheKey per candidate.
func (ev *Evaluator) segCostsIdx(sc *evalScratch, order []string, idxs []int, segs []Segment) (mem int, upd float64) {
	for _, s := range segs {
		span := idxs[s.Start : s.Start+s.Len]
		entryBytes := sc.keyLenFor(ev, order, s.Start, s.Len)*8 + 16
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
				if n < 1 {
					n = 1
				}
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
					if j == i {
						continue
					}
					n := ev.entries[tj]
					if n < 1 {
						n = 1
					}
					mult *= float64(n)
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
	var out []*Option
	// Cross product of member choices (nil = leave member unchanged),
	// capped; at least one member must change. Member options arrive
	// sorted by gain descending and nil goes LAST, so when the cap
	// truncates the product, the best-of-each combination is the first
	// one enumerated and always survives.
	combos := [][]*Option{{}}
	for _, opts := range memberOpts {
		var next [][]*Option
		choices := append(append([]*Option{}, opts...), nil)
		for _, c := range combos {
			for _, ch := range choices {
				if len(next) >= ev.cfg.MaxGroupCombos {
					break
				}
				nc := append(append([]*Option(nil), c...), ch)
				next = append(next, nc)
			}
		}
		combos = next
	}
	for _, c := range combos {
		var gain float64
		var memC int
		var updC float64
		changed := false
		for _, ch := range c {
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
		out = append(out, &Option{
			Kind: OptGroupCombo, Group: g, Members: c,
			Gain: gain, MemCost: memC, UpdateCost: updC,
		})
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
			if !ev.analyzer().CanCache(m.Tables) {
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
	span := ev.appendIdx(make([]int, 0, len(allTables)), allTables)
	// Conditional (per-entering-packet) expected cost of the group: the
	// reach-weighted node costs of members and internal branches,
	// normalized by the entry reach.
	var weighted, weightedAct float64
	for _, ti := range span {
		weighted += ev.reach[ti] * (ev.matchLat[ti] + ev.actLat[ti])
		weightedAct += ev.reach[ti] * ev.actLat[ti]
	}
	for _, bn := range g.Branches {
		weighted += ev.reachOf(bn) * ev.pm.CondLatency()
	}
	baseline := weighted / entryReach
	actSum := weightedAct / entryReach

	h := ev.hitEstimateIdx(allTables, span)
	h = ev.invalidationDiscount(h, span)
	cached := ev.pm.Lmat + h*actSum + (1-h)*baseline
	gain := (baseline - cached) * entryReach
	keyFields := ev.analyzer().CacheKey(allTables)
	entryBytes := (len(keyFields)+len(branchFields))*8 + 16
	return &Option{
		Kind: OptGroupCache, Group: g,
		Gain:       gain,
		MemCost:    ev.cfg.CacheBudgetEntries * entryBytes,
		UpdateCost: ev.cfg.CacheInsertLimit,
	}
}
