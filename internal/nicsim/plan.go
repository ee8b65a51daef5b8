package nicsim

import (
	"runtime"
	"slices"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/profile"
)

// The execution plan is the precompiled form of a loaded program: every
// node gets a dense int32 id, control-flow edges are resolved to ids,
// per-node cost constants are folded in, and profiling sites are bound to
// integer slots of a profile.Layout. Process walks the plan with no map
// lookups, no string parsing, and no locks — the plan pointer itself is
// swapped atomically by the control plane (copy-on-write), which is the
// single-writer invariant that makes the fast path lock-free.

type nodeKind uint8

const (
	nkTable nodeKind = iota
	nkCond
	nkCache
)

// nilNode is the sink id ("" next pointer).
const nilNode int32 = -1

type execNode struct {
	name   string
	kind   nodeKind
	tier   uint8 // placement: execution tier (0 = ASIC)
	copied bool  // replicated on every tier; never migrates

	// Table & cache nodes.
	rt *runtimeTable
	// lmatTier is Lmat scaled by the table's memory-tier factor; the
	// probe charge is probes*lmatTier.
	lmatTier float64
	// keySlot is the Layout.Tables slot for distinct-key tracking
	// (ordinary tables only; -1 otherwise).
	keySlot int32
	// baseNext is the successor when no action executes.
	baseNext int32
	// nextByAct / actSites are indexed by compiledAction.idx.
	nextByAct []int32
	actSites  []int32
	// prepopSlot is the Layout.Caches slot of a pre-populated merged
	// cache (-1 otherwise): the executed action records hit/miss.
	prepopSlot int32

	// Conditional nodes.
	cond                CondFunc
	condSlot            int32
	trueNext, falseNext int32

	// Runtime-cache nodes.
	fc                *flowCache
	cacheSlot         int32
	hitSite, missSite int32
	hitNext, missNext int32
	covers            []uint64 // node-id bitset of the covered span
}

type execPlan struct {
	nodes []execNode
	ids   map[string]int32
	root  int32

	maxSteps   int
	instrument bool

	// Folded cost constants.
	counterUpdate   float64
	sampleCheckCost float64 // SampleCheckFraction * CounterUpdate
	numTiers        int
	// tierMult[t] is the table-node latency multiplier on tier t
	// (guarded >0); condTierMult[t] is the conditional-node multiplier
	// (tier 1 keeps the raw CPUSlowdown — conds historically unguarded).
	tierMult     []float64
	condTierMult []float64
	// migCost[from][to] is the per-transition migration charge; any
	// crossing that involves a tier above 1 is a DMA transfer whose cost
	// is also charged on the NIC's virtual clock.
	migCost       [][]float64
	condLat       float64
	lmat          float64
	lact          float64
	perPacketOver float64
	cacheFillCost float64

	noiseStd  float64
	noiseSeed uint64

	vendor *flowCache

	// Profiling shard bank bound to layout (nil when not instrumented).
	layout *profile.Layout
	shards []*profile.Shard
}

func (pl *execPlan) coversBit(set []uint64, id int32) bool {
	return set == nil || set[id>>6]&(1<<(uint(id)&63)) != 0
}

// compile builds the execution plan from the freshly loaded runtime
// structures. Called with n.mu held (or before the NIC is published).
func (n *NIC) compile() *execPlan {
	names := n.prog.NodeNames()
	ids := make(map[string]int32, len(names))
	for i, name := range names {
		ids[name] = int32(i)
	}
	resolve := func(name string) int32 {
		if id, ok := ids[name]; ok {
			return id
		}
		return nilNode
	}

	pl := &execPlan{
		nodes:         make([]execNode, len(names)),
		ids:           ids,
		root:          resolve(n.prog.Root),
		instrument:    n.cfg.Instrument,
		counterUpdate: n.pm.CounterUpdate,
		numTiers:      n.pm.NumTiers(),
		condLat:       n.pm.CondLatency(),
		lmat:          n.pm.Lmat,
		lact:          n.pm.Lact,
		perPacketOver: n.cfg.PerPacketOverheadNs,
		cacheFillCost: n.cfg.CacheFillCostNs,
		noiseStd:      n.cfg.NoiseStdDev,
		noiseSeed:     n.cfg.Seed + 1,
		vendor:        n.vendorCache,
	}
	pl.tierMult = make([]float64, pl.numTiers)
	pl.condTierMult = make([]float64, pl.numTiers)
	pl.migCost = make([][]float64, pl.numTiers)
	for t := 0; t < pl.numTiers; t++ {
		tid := costmodel.TierID(t)
		pl.tierMult[t] = n.pm.TierSpeed(tid)
		if t == 1 {
			// Conds historically used the raw CPUSlowdown unguarded.
			pl.condTierMult[t] = n.pm.CPUSlowdown
		} else {
			pl.condTierMult[t] = n.pm.TierSpeed(tid)
		}
		pl.migCost[t] = make([]float64, pl.numTiers)
		for u := 0; u < pl.numTiers; u++ {
			pl.migCost[t][u] = n.pm.MigrationCost(tid, costmodel.TierID(u))
		}
	}
	sampleCheck := n.cfg.SampleCheckFraction
	if n.cfg.Instrument && sampleCheck == 0 {
		sampleCheck = 0.15
	}
	pl.sampleCheckCost = sampleCheck * n.pm.CounterUpdate
	pl.maxSteps = n.cfg.MaxSteps
	if pl.maxSteps <= 0 {
		pl.maxSteps = 4*n.prog.NumNodes() + 16
	}

	layout := &profile.Layout{}
	for i, name := range names {
		nd := &pl.nodes[i]
		nd.name = name
		nd.keySlot, nd.condSlot, nd.cacheSlot, nd.prepopSlot = -1, -1, -1, -1
		nd.hitSite, nd.missSite = -1, -1
		t, c := n.prog.Node(name)
		if t != nil {
			rt := n.tables[name]
			nd.rt = rt
			nd.tier = resolveTier(t, n.cfg, pl.numTiers)
			nd.copied = n.cfg.CopiedTables[name] || t.TierCopied()
			nd.lmatTier = n.pm.Lmat * n.pm.TierFactor(t)
			if fc, isCache := n.caches[name]; isCache {
				nd.kind = nkCache
				nd.fc = fc
				nd.hitNext = resolve(fc.spec.HitNext)
				nd.missNext = resolve(fc.spec.MissNext)
				nd.cacheSlot = int32(len(layout.Caches))
				layout.Caches = append(layout.Caches, name)
				nd.hitSite = int32(len(layout.Actions))
				layout.Actions = append(layout.Actions, profile.ActionSite{Table: name, Action: "cache_hit"})
				nd.missSite = int32(len(layout.Actions))
				layout.Actions = append(layout.Actions, profile.ActionSite{Table: name, Action: "cache_miss"})
				nd.covers = make([]uint64, (len(names)+63)/64)
				for _, covered := range fc.spec.Covers {
					if id, ok := ids[covered]; ok {
						nd.covers[id>>6] |= 1 << (uint(id) & 63)
					}
				}
				continue
			}
			nd.kind = nkTable
			nd.baseNext = resolve(t.BaseNext)
			nd.keySlot = int32(len(layout.Tables))
			layout.Tables = append(layout.Tables, name)
			if spec, ok := t.CacheMeta(); ok && spec.Prepopulated {
				nd.prepopSlot = int32(len(layout.Caches))
				layout.Caches = append(layout.Caches, name)
			}
			nd.nextByAct = make([]int32, len(rt.acts))
			nd.actSites = make([]int32, len(rt.acts))
			for ai, ca := range rt.acts {
				nd.nextByAct[ai] = resolve(t.NextFor(ca.act.Name))
				nd.actSites[ai] = int32(len(layout.Actions))
				layout.Actions = append(layout.Actions, profile.ActionSite{Table: name, Action: ca.act.Name})
			}
		} else if c != nil {
			nd.kind = nkCond
			nd.cond = n.conds[name]
			nd.trueNext = resolve(c.TrueNext)
			nd.falseNext = resolve(c.FalseNext)
			nd.condSlot = int32(len(layout.Branches))
			layout.Branches = append(layout.Branches, name)
		}
	}
	pl.layout = layout
	if n.cfg.Instrument && n.cfg.Collector != nil {
		pl.shards = n.cfg.Collector.Bind(layout, numShards())
	}
	return pl
}

// resolveTier decides a table's execution tier: explicit TierTables
// config wins, then the placement annotation; the result is raised to the
// table's floor (Unsupported tables never land on the ASIC) and clamped to
// the tiers the target has.
func resolveTier(t *p4ir.Table, cfg Config, numTiers int) uint8 {
	tier := 0
	if tt, ok := cfg.TierTables[t.Name]; ok {
		tier = tt
	} else if at, ok := t.TierAssignment(); ok {
		tier = at
	}
	if f := t.TierFloor(); tier < f {
		tier = f
	}
	if tier >= numTiers {
		tier = numTiers - 1
	}
	return uint8(tier)
}

// rebuiltNode returns a copy of the plan with one node's runtime table
// replaced (entry mutation): the layout, sites and edges are unchanged
// because entry updates cannot add or remove actions.
func (pl *execPlan) rebuiltNode(id int32, rt *runtimeTable) *execPlan {
	next := *pl
	next.nodes = slices.Clone(pl.nodes)
	next.nodes[id].rt = rt
	return &next
}

// numShards sizes the per-core counter bank: enough shards that
// concurrent processing contexts rarely share one, without scaling memory
// with packet count.
func numShards() int {
	n := runtime.GOMAXPROCS(0) * 2
	if n < 8 {
		n = 8
	}
	return n
}
