package nicsim

import (
	"runtime"
	"slices"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/profile"
)

// The execution plan is the precompiled form of a loaded program: every
// node gets a dense int32 id, control-flow edges are resolved to ids, the
// target's cost kernel is embedded, and profiling sites are bound to
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
	// probe is the kernel's Probe of the table (its memory tier applied);
	// a lookup is charged probes*probe.
	probe float64
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

	// The constants every event is charged: a probe, a primitive, a
	// conditional, a counter update, each scaled by the current tier's
	// Speed, and Migrate[from][to] per tier transition (a crossing that
	// involves a tier above 1 is a DMA transfer, also charged on the NIC's
	// virtual clock).
	costmodel.Kernel
	sampleCheckCost float64 // SampleCheckFraction * Counter
	perPacketOver   float64
	cacheFillCost   float64

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
		Kernel:        n.kern,
		perPacketOver: n.cfg.PerPacketOverheadNs,
		cacheFillCost: n.cfg.CacheFillCostNs,
		noiseStd:      n.cfg.NoiseStdDev,
		noiseSeed:     n.cfg.Seed + 1,
		vendor:        n.vendorCache,
	}
	sampleCheck := n.cfg.SampleCheckFraction
	if n.cfg.Instrument && sampleCheck == 0 {
		sampleCheck = 0.15
	}
	pl.sampleCheckCost = sampleCheck * pl.Counter
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
			// An explicit TierTables entry wins over the placement
			// annotation.
			tier, ok := n.cfg.TierTables[name]
			if !ok {
				tier, _ = t.TierAssignment()
			}
			nd.tier = uint8(pl.Tier(tier, t.TierFloor()))
			nd.copied = n.cfg.CopiedTables[name] || t.TierCopied()
			nd.probe = pl.Probe(t)
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
