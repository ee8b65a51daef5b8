package nicsim

import (
	"runtime"
	"slices"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/profile"
)

// The execution plan is the precompiled form of a loaded program: every
// node gets a dense int32 id, control-flow edges are resolved to ids, the
// target's cost kernel is embedded, and profiling sites are bound to
// integer slots of a profile.Layout. Process walks the plan with no map
// lookups and no string parsing. The plan pointer is swapped atomically by
// the control plane (copy-on-write), the single-writer invariant that makes
// the walk of a cache-free plan lock-free; a plan with a flow cache is
// walked under the NIC's cache lock, once per burst.

type nodeKind uint8

const (
	nkTable nodeKind = iota
	nkCond
	nkCache
)

// nilNode is the sink id ("" next pointer): p4ir.Index.ID's -1.
const nilNode int32 = -1

// sampleCheckFraction is what an instrumentation point charges an unsampled
// packet, in counter updates: the sampling test is not free on hardware
// (1/1024 sampling still costs ~4-5% on Agilio CX, §5.4.1).
const sampleCheckFraction = 0.15

type execNode struct {
	kind   nodeKind
	tier   uint8 // placement: execution tier (0 = ASIC)
	copied bool  // replicated on every tier; never migrates

	// Table & cache nodes: what a packet reads of rt, copied out by bind.
	// A oneWord key is gathered from fid and kmask (a wider one from fids
	// and kmasks, below); views are the groups in probe order; ternary
	// selects take's ladder.
	oneWord, ternary bool
	fid              packet.FieldID
	kmask            uint64
	views            []groupView
	// charge is a lookup's probe charge before the tier's speed:
	// numGroups·probe.
	charge     float64
	defaultAct *compiledAction
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
	// probe is the kernel's Probe of the table (its memory tier applied).
	probe float64

	// Conditional nodes.
	cond                condFunc
	condSlot            int32
	trueNext, falseNext int32

	// Runtime-cache nodes.
	fc                *flowCache
	cacheSlot         int32
	hitSite, missSite int32
	hitNext, missNext int32
	covers            []uint64 // node-id bitset of the covered span

	// A key of more than one word is gathered by fids, masked by kmasks:
	// off the lines the walk reads for every table.
	fids   []packet.FieldID
	kmasks []uint64

	name string // read for Result.Path only: last, off the walk's lines
}

// bind copies out of rt what the lookup of a table or cache node reads, so
// that the walk gathers, probes and charges without loading the table
// header or a group header. compile and rebuiltNode are the only
// places a plan publishes a runtime table, and both bind it: a node never
// holds views of a page its table no longer has.
func (nd *execNode) bind(rt *runtimeTable) {
	nd.defaultAct = rt.defaultAct
	nd.charge = float64(rt.numGroups()) * nd.probe
	nd.ternary = rt.kind == p4ir.MatchTernary
	nd.fids, nd.kmasks = rt.fids, rt.kmasks
	if nd.oneWord = len(rt.fids) == 1; nd.oneWord {
		nd.fid, nd.kmask = rt.fids[0], rt.kmasks[0]
	}
	nd.views = rt.views[:0]
	for _, g := range rt.groups {
		nd.views = append(nd.views, g.groupView)
	}
}

// lookup matches the width-masked key words against the node's table,
// group by group in probe order. Hardware probes every bank: the charge is
// numGroups whatever is found where. A one-word key's loop holds no call,
// which keeps it in registers.
func (nd *execNode) lookup(values []uint64) *storedEntry {
	var best *storedEntry
	if nd.oneWord {
		for i := range nd.views {
			var done bool
			if best, done = take(nd.ternary, best, nd.views[i].probe1(values[0])); done {
				break
			}
		}
		return best
	}
	for i := range nd.views {
		_, s := nd.views[i].find(values)
		var done bool
		if best, done = take(nd.ternary, best, s.v); done {
			break
		}
	}
	return best
}

type execPlan struct {
	nodes []execNode // by p4ir.Index ID
	ix    *p4ir.Index

	maxSteps   int
	root       int32
	instrument bool
	cached     bool // a flow cache (runtime or vendor) is on the walk

	// The constants every event is charged: a probe, a primitive, a
	// conditional, a counter update, each scaled by the current tier's
	// Speed, and Migrate[from][to] per tier transition (a crossing that
	// involves a tier above 1 is a DMA transfer, also charged on the NIC's
	// virtual clock).
	costmodel.Kernel
	sampleCheckCost float64 // sampleCheckFraction * Counter when instrumented
	perPacketOver   float64
	cacheFillCost   float64

	noiseStd  float64
	noiseSeed uint64

	vendor *flowCache

	// Profiling shard bank bound to layout (nil when not instrumented).
	layout *profile.Layout
	shards []*profile.Shard

	// memo is Measure's trace memo, keyed on the plan's read set: nil
	// when the layout's counter sites are too many to record.
	memo *traceMemo
}

func (pl *execPlan) coversBit(set []uint64, id int32) bool {
	return set == nil || set[id>>6]&(1<<(uint(id)&63)) != 0
}

// compile builds the execution plan from the freshly loaded runtime
// structures. Called with n.mu held (or before the NIC is published).
func (n *NIC) compile() *execPlan {
	ix := p4ir.NewIndex(n.prog)
	names := ix.Names()

	pl := &execPlan{
		nodes:         make([]execNode, len(names)),
		ix:            ix,
		root:          ix.ID(n.prog.Root),
		instrument:    n.cfg.Instrument,
		Kernel:        n.kern,
		perPacketOver: n.cfg.PerPacketOverheadNs,
		cacheFillCost: n.cfg.CacheFillCostNs,
		noiseStd:      n.cfg.NoiseStdDev,
		noiseSeed:     n.cfg.Seed + 1,
		vendor:        n.vendorCache,
		cached:        n.vendorCache != nil,
	}
	if n.cfg.Instrument {
		pl.sampleCheckCost = sampleCheckFraction * pl.Counter
	}
	pl.maxSteps = 4*n.prog.NumNodes() + 16 // guards against miswired programs

	// reads is the plan's read set (see headerBit): the memo's key.
	var reads uint64

	layout := &profile.Layout{}
	for i, name := range names {
		nd := &pl.nodes[i]
		nd.name = name
		nd.keySlot, nd.condSlot, nd.cacheSlot, nd.prepopSlot = -1, -1, -1, -1
		nd.hitSite, nd.missSite = -1, -1
		t, c := ix.Table(int32(i)), ix.Cond(int32(i))
		if t != nil {
			rt := n.tables[name]
			// The placement annotations say where a table runs: its
			// floor (Unsupported / MinTier) still applies, and tiers the
			// cost model does not have are clamped to its top tier.
			tier, _ := t.TierAssignment()
			nd.tier = uint8(pl.Tier(tier, t.TierFloor()))
			nd.copied = t.TierCopied()
			nd.probe = pl.Probe(t)
			nd.bind(rt)
			reads |= rt.headerReads()
			if fc, isCache := n.caches[name]; isCache {
				nd.kind = nkCache
				nd.fc = fc
				pl.cached = true
				nd.hitNext = ix.ID(fc.spec.HitNext)
				nd.missNext = ix.ID(fc.spec.MissNext)
				nd.cacheSlot = int32(len(layout.Caches))
				layout.Caches = append(layout.Caches, name)
				nd.hitSite = int32(len(layout.Actions))
				layout.Actions = append(layout.Actions, profile.ActionSite{Table: name, Action: "cache_hit"})
				nd.missSite = int32(len(layout.Actions))
				layout.Actions = append(layout.Actions, profile.ActionSite{Table: name, Action: "cache_miss"})
				nd.covers = make([]uint64, (len(names)+63)/64)
				for _, covered := range fc.spec.Covers {
					if id := ix.ID(covered); id >= 0 {
						nd.covers[id>>6] |= 1 << (uint(id) & 63)
					}
				}
				continue
			}
			nd.kind = nkTable
			nd.baseNext = ix.ID(t.BaseNext)
			nd.keySlot = int32(len(layout.Tables))
			layout.Tables = append(layout.Tables, name)
			if spec, ok := t.CacheMeta(); ok && spec.Prepopulated {
				nd.prepopSlot = int32(len(layout.Caches))
				layout.Caches = append(layout.Caches, name)
			}
			nd.nextByAct = make([]int32, len(rt.acts))
			nd.actSites = make([]int32, len(rt.acts))
			for ai, ca := range rt.acts {
				nd.nextByAct[ai] = ix.ID(t.NextFor(ca.act.Name))
				nd.actSites[ai] = int32(len(layout.Actions))
				layout.Actions = append(layout.Actions, profile.ActionSite{Table: name, Action: ca.act.Name})
			}
		} else if c != nil {
			if d := c.Decode(); d.Kind == p4ir.CondCompare {
				reads |= headerBit(packet.FieldIDFor(d.Field))
			}
			nd.kind = nkCond
			nd.cond = n.conds[name]
			nd.trueNext = ix.ID(c.TrueNext)
			nd.falseNext = ix.ID(c.FalseNext)
			nd.condSlot = int32(len(layout.Branches))
			layout.Branches = append(layout.Branches, name)
		}
	}
	pl.layout = layout
	if n.cfg.Instrument && n.cfg.Collector != nil {
		pl.shards = n.cfg.Collector.Bind(layout, numShards())
	}
	if pl.vendor != nil {
		for _, f := range flowFields {
			reads |= headerBit(packet.FieldIDFor(f))
		}
	}
	if memoable(layout, len(pl.nodes)) {
		pl.memo = newTraceMemo(pl, reads)
	}
	return pl
}

// flowFields are the header fields packet.Flow reads: the vendor cache's
// key.
var flowFields = []string{"ipv4.srcAddr", "ipv4.dstAddr", "ipv4.proto", "tcp.sport", "tcp.dport", "udp.sport", "udp.dport"}

// rebuiltNode returns a copy of the plan with one node bound to a new
// runtime table (entry mutation): the layout, sites and edges are
// unchanged because entry updates cannot add or remove actions. The memo
// passes to the copy, emptied, its read set taking in the new entries'.
func (pl *execPlan) rebuiltNode(id int32, rt *runtimeTable) *execPlan {
	next := *pl
	next.nodes = slices.Clone(pl.nodes)
	next.nodes[id].bind(rt)
	if next.memo != nil {
		next.memo.passTo(&next, rt.headerReads())
	}
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
