package nicsim

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/faultinject"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/profile"
	"pipeleon/internal/stats"
)

// Config configures a NIC instance.
type Config struct {
	// Params is the target cost/performance model.
	Params costmodel.Params
	// CopiedTables exist on every tier (table copying, §3.2.4): the
	// packet executes them wherever it currently is, avoiding migration.
	CopiedTables map[string]bool
	// TierTables places tables on an explicit execution tier (0 = ASIC,
	// 1 = NIC CPU, 2 = off-path host). It overrides the program's
	// placement annotations; a table's floor (Unsupported /
	// MinTier) still applies, and tiers the cost model does not have are
	// clamped to its top tier.
	TierTables map[string]int
	// VendorCache enables a Netronome-style built-in whole-program flow
	// cache keyed on the 5-tuple (§5.2.1: "Netronome SmartNICs have a
	// vendor-native flow cache feature for the whole program").
	VendorCache bool
	// VendorCacheBudget is its LRU capacity (entries).
	VendorCacheBudget int
	// CondFuncs supplies evaluators for conditional expressions the
	// built-in compiler cannot parse.
	CondFuncs map[string]CondFunc
	// Collector receives profiling counters when Instrument is true.
	Collector *profile.Collector
	// Instrument enables per-packet counter updates (and their latency
	// cost, §5.4.1).
	Instrument bool
	// Seed / NoiseStdDev add deterministic multiplicative measurement
	// noise, so "hardware measurements" differ from model predictions the
	// way real measurements do (Figure 5's ~5% deviation). The noise is a
	// pure function of (seed, flow, noiseless latency), so it is
	// independent of packet processing order — serial and parallel runs
	// of the same batch produce bit-identical latencies.
	Seed        uint64
	NoiseStdDev float64
	// MaxSteps guards against miswired programs (0 = auto).
	MaxSteps int
	// CacheFillCostNs is charged to the packet that installs a cache
	// entry: on real NICs, entry insertions compete with packet
	// processing for table-update bandwidth, which is what makes
	// frequently-invalidated caches catastrophic (Figure 11a's 20 Gb/s
	// collapse under an insertion burst).
	CacheFillCostNs float64
	// PerPacketOverheadNs is a fixed per-packet cost (parsing, steering,
	// DMA) the closed-form cost model deliberately does not include —
	// the paper's regression absorbs it into the constants B1/B2. It is
	// what makes Figure 5's model-vs-measurement comparison non-trivial.
	PerPacketOverheadNs float64
	// SampleCheckFraction is the cost (as a fraction of one counter
	// update) each instrumentation point charges packets that are NOT
	// sampled — the per-site sampling test is not free on hardware,
	// which is why 1/1024 sampling still costs ~4-5% on Agilio CX
	// (§5.4.1). Default 0.15 when Instrument is set.
	SampleCheckFraction float64
	// Faults, when non-nil, is consulted on program swaps so tests can
	// inject deploy failures and silent mid-deploy crashes (the NIC left
	// on the old program). Production configs leave it nil.
	Faults faultinject.Injector
}

// NIC is one emulated SmartNIC running a program.
//
// The data path is lock-free: Process reads the current execution plan
// through an atomic pointer and walks it with a pooled scratch context,
// so packet processing scales with cores. n.mu serializes only the
// control plane (Swap, entry mutation, introspection), which rebuilds
// affected plan state copy-on-write and publishes it atomically.
type NIC struct {
	mu     sync.RWMutex
	prog   *p4ir.Program
	cfg    Config
	kern   costmodel.Kernel
	tables map[string]*runtimeTable
	conds  map[string]CondFunc
	caches map[string]*flowCache
	// coveredBy maps a table to the runtime caches that must invalidate
	// when it changes.
	coveredBy   map[string][]*flowCache
	vendorCache *flowCache

	plan    atomic.Pointer[execPlan]
	ctxPool sync.Pool
	ctxSeq  atomic.Uint32

	processed  atomic.Uint64
	droppedCnt atomic.Uint64

	// vnow is the NIC's virtual clock in nanoseconds since the Unix
	// epoch, advanced by each packet's modeled latency. It feeds the
	// cache insertion rate limiters instead of the wall clock, keeping
	// the emulator deterministic under record/replay.
	vnow atomic.Int64

	// digest is prog.Digest(), or zero until the first ProgramDigest after
	// load or an entry operation changed prog. Last, so that the data
	// path's fields sit where they did before it was added.
	digest p4ir.Digest
}

// procCtx is the reusable per-call scratch state of Process. Pooled so
// steady-state processing performs no transient allocations; the shard
// slot spreads concurrent contexts across the collector's counter banks.
type procCtx struct {
	slot     uint32
	wantPath bool     // record Result.Path (scalar Process only)
	values   []uint64 // gathered match-key values
	keyBuf   []uint64 // append-only per-packet cache-fill key words
	path     []int32  // node ids traversed
	writes   []fieldWrite
	fills    []fillRef
	fillBufs [][]fieldWrite // reusable write buffers, one per fill slot
	// burst is the profiling accumulator (lazily created), flushed once
	// per burst.
	burst *profile.Burst
}

// reset clears the per-packet scratch slices for reuse.
func (ctx *procCtx) reset() {
	ctx.path = ctx.path[:0]
	ctx.keyBuf = ctx.keyBuf[:0]
	ctx.writes = ctx.writes[:0]
	ctx.fills = ctx.fills[:0]
}

type fillRef struct {
	cache          *flowCache
	keyOff, keyLen int      // in words of keyBuf
	covers         []uint64 // node-id bitset; nil = every table (vendor)
	writes         []fieldWrite
	dropped        bool
}

// New builds a NIC executing prog under cfg.
func New(prog *p4ir.Program, cfg Config) (*NIC, error) {
	n := &NIC{cfg: cfg, kern: cfg.Params.Kernel()}
	n.ctxPool.New = func() any {
		return &procCtx{slot: n.ctxSeq.Add(1) - 1, values: make([]uint64, 0, 8)}
	}
	if cfg.VendorCache {
		budget := cfg.VendorCacheBudget
		if budget <= 0 {
			budget = 1 << 16
		}
		n.vendorCache = newFlowCache(p4ir.CacheSpec{
			Table: "__vendor_cache", Kind: p4ir.KindCache, Budget: budget,
		}, nil)
	}
	if err := n.load(prog); err != nil {
		return nil, err
	}
	return n, nil
}

// load compiles a program into runtime structures and publishes a fresh
// execution plan (callers hold no lock or the write lock). Live
// reconfiguration keeps the state the new layout still uses. A table that
// compiles to the store the loaded table of its name has (sameStore: the
// device compares with its own copy, whatever a caller says it changed)
// takes that store as a fork, copied on write by entry operations; only
// rewritten, merged and generated tables install entry by entry. A runtime
// cache of unchanged identity (name + covered span + budget) keeps its
// contents: a re-optimization that keeps it does not cold-start it.
func (n *NIC) load(prog *p4ir.Program) error {
	if err := prog.Validate(); err != nil {
		return err
	}
	tables := make(map[string]*runtimeTable, len(prog.Tables))
	conds := make(map[string]CondFunc, len(prog.Conds))
	caches := map[string]*flowCache{}
	coveredBy := map[string][]*flowCache{}
	for name, t := range prog.Tables {
		if old := n.tables[name]; old != nil && sameStore(old.tbl, t) {
			tables[name] = old.fork()
			tables[name].tbl = t
			for i := range t.Entries { // the arrays the store holds, not a second copy
				t.Entries[i].Match = old.tbl.Entries[i].Match
			}
		} else if rt, err := buildTable(t, t.Entries, n.kern.PinnedM(t)); err != nil {
			return err
		} else {
			tables[name] = rt
		}
		if spec, ok := t.CacheMeta(); ok && !spec.Prepopulated {
			fields := make([]string, len(t.Keys))
			for i, k := range t.Keys {
				fields[i] = k.Field
			}
			var fc *flowCache
			if old, exists := n.caches[name]; exists && sameCacheIdentity(old.spec, spec) {
				old.mu.Lock()
				old.spec = spec // routing may have changed; contents survive
				old.mu.Unlock()
				fc = old
			} else {
				fc = newFlowCache(spec, fields)
			}
			caches[name] = fc
			for _, covered := range spec.Covers {
				coveredBy[covered] = append(coveredBy[covered], fc)
			}
		}
	}
	for name, c := range prog.Conds {
		f, err := compileCond(c.Expr, n.cfg.CondFuncs)
		if err != nil {
			return err
		}
		conds[name] = f
	}
	n.prog, n.digest = prog, p4ir.Digest{}
	n.tables = tables
	n.conds = conds
	n.caches = caches
	n.coveredBy = coveredBy
	n.plan.Store(n.compile())
	return nil
}

// sameStore reports whether two tables compile to the same match store:
// everything buildTable reads of a table, entries in install order included.
func sameStore(a, b *p4ir.Table) bool {
	prim := func(p, q p4ir.Primitive) bool { return p.Op == q.Op && slices.Equal(p.Args, q.Args) }
	act := func(x, y *p4ir.Action) bool {
		return x.Name == y.Name && slices.EqualFunc(x.Primitives, y.Primitives, prim)
	}
	entry := func(x, y p4ir.Entry) bool {
		return x.Priority == y.Priority && x.Action == y.Action && slices.Equal(x.Match, y.Match) && slices.Equal(x.Args, y.Args)
	}
	return a.DefaultAction == b.DefaultAction && a.MaxEntries == b.MaxEntries && slices.Equal(a.Keys, b.Keys) &&
		slices.EqualFunc(a.Actions, b.Actions, act) && slices.EqualFunc(a.Entries, b.Entries, entry)
}

// sameCacheIdentity reports whether two cache specs describe the same
// cache (same covered span and budget), so its contents may survive a
// program swap.
func sameCacheIdentity(a, b p4ir.CacheSpec) bool {
	return a.Table == b.Table && a.Budget == b.Budget && slices.Equal(a.Covers, b.Covers)
}

// Swap atomically replaces the running program — the live runtime
// reconfiguration of runtime-programmable SmartNICs (§2.3 deployment
// scenario 1). Tables the swap leaves as they were keep their match store
// and runtime cache contents (see load); the rest start afresh.
//
// Under fault injection a swap may fail (reload rejected, device keeps
// the old program) or crash mid-deploy (reported success, old program
// still running) — the failure modes the runtime's verify-and-rollback
// deploy transaction exists to absorb.
func (n *NIC) Swap(prog *p4ir.Program) error {
	if n.cfg.Faults != nil {
		d := n.cfg.Faults.At(faultinject.PointDeploy)
		if d.Delay > 0 {
			time.Sleep(d.Delay)
		}
		if d.Fail {
			return fmt.Errorf("nicsim: deploy failed: %w", d.Error())
		}
		if d.Silent {
			return nil
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.load(prog.Clone())
}

// Program returns the currently loaded program (callers must not mutate).
func (n *NIC) Program() *p4ir.Program {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.prog
}

// ProgramDigest returns Program().Digest(), hashing the program only on the
// first ask after a swap or an entry operation changed it.
func (n *NIC) ProgramDigest() p4ir.Digest {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.digest == (p4ir.Digest{}) {
		n.digest = n.prog.Digest()
	}
	return n.digest
}

// Params returns the cost/performance model the NIC was built with.
func (n *NIC) Params() costmodel.Params { return n.cfg.Params }

// Result reports the outcome of processing one packet.
type Result struct {
	Dropped bool
	// LatencyNs is the emulated per-packet latency under the target's
	// cost parameters, including migration and instrumentation overhead
	// and measurement noise.
	LatencyNs float64
	// Path lists the nodes traversed.
	Path []string
	// Migrations counts tier transitions (ASIC<->CPU<->off-path).
	Migrations int
	// DMACrossings counts the subset of migrations that crossed the
	// PCIe/DMA boundary to or from an off-path tier.
	DMACrossings int
	// CounterUpdates counts profiling counter increments charged.
	CounterUpdates int
	// VendorCacheHit marks packets short-circuited by the built-in cache.
	VendorCacheHit bool
}

// Process runs one packet through the program, mutating it in place, and
// returns the emulated result: ProcessBurst of one packet, plus
// Result.Path. It takes no locks on the plan: the execution plan is read
// through an atomic pointer and all scratch state lives in a pooled
// context, so concurrent callers never contend.
func (n *NIC) Process(pkt *packet.Packet) Result {
	pl := n.plan.Load()
	ctx := n.ctxPool.Get().(*procCtx)
	ctx.wantPath = true
	sink := ctx.sink(pl)
	var res Result
	n.run(pl, ctx, pkt, sink, &res)
	sink.Flush()
	n.note(res.Dropped)
	ctx.reset()
	n.ctxPool.Put(ctx)
	return res
}

// sink returns the context's profiling accumulator bound to the plan's
// shard bank, or nil when the plan is not instrumented.
func (ctx *procCtx) sink(pl *execPlan) *profile.Burst {
	if len(pl.shards) == 0 {
		return nil
	}
	shard := pl.shards[int(ctx.slot)%len(pl.shards)]
	if ctx.burst == nil {
		ctx.burst = shard.NewBurst()
	} else {
		ctx.burst.Rebind(shard)
	}
	return ctx.burst
}

// run walks the compiled plan for one packet. Profiling updates go
// through sink, which the caller flushes; the caller also accounts the
// packet via note / noteBurst.
// run fills res in place rather than returning it: the burst path calls
// it once per packet, and writing through the pointer keeps the Result
// (with its Path slice header) out of the call's copy traffic.
func (n *NIC) run(pl *execPlan, ctx *procCtx, pkt *packet.Packet, sink *profile.Burst, res *Result) {
	*res = Result{}
	lat := pl.perPacketOver

	sampled := false
	if pl.instrument && sink != nil {
		sampled = sink.Sampled()
	}
	// The flow hash feeds profiling (AddFlow) and the noise model; when
	// neither is live this packet, skip computing it.
	var flowHash uint64
	if sampled || pl.noiseStd > 0 {
		flowHash = pkt.Flow().FastHash()
	}
	if sampled {
		sink.AddFlow(flowHash)
	}

	// Vendor cache front-end.
	if pl.vendor != nil {
		k := pkt.Flow()
		off := len(ctx.keyBuf)
		ctx.keyBuf = append(ctx.keyBuf,
			uint64(k.SrcAddr)<<32|uint64(k.DstAddr),
			uint64(k.SrcPort)<<24|uint64(k.DstPort)<<8|uint64(k.Proto))
		lat += pl.Mat
		if r, ok := pl.vendor.get(ctx.keyBuf[off:], ctx.writes); ok {
			ctx.writes = r.writes
			for _, w := range r.writes {
				pkt.SetID(w.id, w.value)
			}
			lat += float64(len(r.writes)) * pl.Act
			res.VendorCacheHit = true
			res.Dropped = r.dropped
			res.LatencyNs = pl.applyNoise(lat, flowHash)
			return
		}
		ctx.addFill(pl.vendor, off, len(ctx.keyBuf)-off, nil)
	}

	cur := pl.root
	curTier := uint8(0)
	dropped := false

	for steps := 0; cur >= 0 && steps < pl.maxSteps; steps++ {
		nd := &pl.nodes[cur]
		if ctx.wantPath {
			ctx.path = append(ctx.path, cur)
		}
		if nd.kind == nkCond {
			mult := pl.Speed[curTier]
			lat += pl.Cond * mult
			taken := nd.cond(pkt)
			if sampled {
				sink.IncBranch(int(nd.condSlot), taken)
				res.CounterUpdates++
				lat += pl.Counter * mult
			} else if pl.instrument {
				lat += pl.sampleCheckCost * mult
			}
			if taken {
				cur = nd.trueNext
			} else {
				cur = nd.falseNext
			}
			continue
		}

		// Tier placement and migration (tables and caches).
		if nd.tier != curTier && !nd.copied {
			cost := pl.Migrate[curTier][nd.tier]
			lat += cost
			if curTier > 1 || nd.tier > 1 {
				// Off-path crossings are DMA transfers: the descriptor
				// ring occupies the device for the transfer, so the cost
				// is also charged on the NIC's virtual clock (two-tier
				// on-path migrations stay latency-only, as before).
				res.DMACrossings++
				n.vnow.Add(int64(cost))
			}
			res.Migrations++
			curTier = nd.tier
		}
		mult := pl.Speed[curTier]
		rt := nd.rt
		// Gather the width-masked key fields, by compiled field ID; most
		// keys are one field, fetched without the loop.
		vals := ctx.values[:1]
		if len(rt.fids) == 1 {
			vals[0] = pkt.GetID(rt.fids[0]) & rt.kmasks[0]
		} else {
			vals = vals[:0]
			for i, fid := range rt.fids {
				vals = append(vals, pkt.GetID(fid)&rt.kmasks[i])
			}
			ctx.values = vals
		}

		if nd.kind == nkCache {
			lat += pl.Mat * mult
			off := len(ctx.keyBuf)
			ctx.keyBuf = append(ctx.keyBuf, vals...)
			if r, ok := nd.fc.get(ctx.keyBuf[off:], ctx.writes); ok {
				ctx.writes = r.writes
				for _, w := range r.writes {
					pkt.SetID(w.id, w.value)
				}
				lat += float64(len(r.writes)) * pl.Act * mult
				if sampled {
					sink.IncCache(int(nd.cacheSlot), true)
					sink.IncAction(int(nd.hitSite))
					res.CounterUpdates++
					lat += pl.Counter * mult
				} else if pl.instrument {
					lat += pl.sampleCheckCost * mult
				}
				if r.dropped {
					dropped = true
					break
				}
				cur = nd.hitNext
				continue
			}
			if sampled {
				sink.IncCache(int(nd.cacheSlot), false)
				sink.IncAction(int(nd.missSite))
				res.CounterUpdates++
				lat += pl.Counter * mult
			} else if pl.instrument {
				lat += pl.sampleCheckCost * mult
			}
			ctx.addFill(nd.fc, off, len(ctx.keyBuf)-off, nd.covers)
			cur = nd.missNext
			continue
		}

		// Ordinary (or pre-populated merged-cache) table.
		if sampled && len(vals) > 0 {
			// A one-field key is its own identity; wider keys fold to a
			// hash.
			k := vals[0]
			if len(vals) > 1 {
				k = hashWords(vals)
			}
			sink.AddKey(int(nd.keySlot), k)
		}
		var se *storedEntry
		if len(vals) != 1 || len(rt.groups) != 1 {
			se = rt.lookup(vals)
		} else if g := rt.groups[0]; len(g.flat) != 0 {
			// One word in one small group, the hottest shape: probed inline.
			se = g.probe1(vals[0])
		} else {
			se = g.probePaged(vals[0])
		}
		act := rt.defaultAct
		var cargs []operand
		if se != nil {
			act, cargs = se.cact, se.cargs
		}
		lat += float64(rt.numGroups()) * nd.probe * mult
		if act == nil {
			// Table with no actions: pure forwarding node.
			cur = nd.baseNext
			continue
		}
		lat += float64(len(act.prims)) * pl.Act * mult
		if sampled {
			sink.IncAction(int(nd.actSites[act.idx]))
			if nd.prepopSlot >= 0 {
				sink.IncCache(int(nd.prepopSlot), !act.isCacheMiss)
			}
			res.CounterUpdates++
			lat += pl.Counter * mult
		} else if pl.instrument {
			lat += pl.sampleCheckCost * mult
		}
		var didDrop bool
		if len(ctx.fills) > 0 {
			ctx.writes = ctx.writes[:0]
			didDrop = act.apply(pkt, cargs, &ctx.writes)
			for fi := range ctx.fills {
				f := &ctx.fills[fi]
				if pl.coversBit(f.covers, cur) {
					f.writes = append(f.writes, ctx.writes...)
					if didDrop {
						f.dropped = true
					}
				}
			}
		} else {
			didDrop = act.apply(pkt, cargs, nil)
		}
		if didDrop {
			dropped = true
			break
		}
		cur = nd.nextByAct[act.idx]
	}

	// Finalize cache fills. Installing entries consumes entry-insertion
	// bandwidth; the cost is charged once per packet (inserts into
	// multiple caches are pipelined by the hardware update engine).
	if len(ctx.fills) > 0 {
		// Virtual time: advance the NIC clock by this packet's modeled
		// latency (at least 1 ns so it is strictly monotonic) and stamp
		// the fills with it. Rate limiting then depends only on the
		// simulated workload, not on the host's wall clock — a replayed
		// trace reproduces the exact same insert/reject sequence.
		tick := int64(lat)
		if tick < 1 {
			tick = 1
		}
		now := time.Unix(0, n.vnow.Add(tick))
		filled := false
		for fi := range ctx.fills {
			f := &ctx.fills[fi]
			key := ctx.keyBuf[f.keyOff : f.keyOff+f.keyLen]
			if f.cache.put(key, cachedResult{writes: f.writes, dropped: f.dropped}, now) {
				filled = true
			}
			ctx.fillBufs = append(ctx.fillBufs, f.writes[:0])
		}
		if filled {
			lat += pl.cacheFillCost
		}
	}
	res.Dropped = dropped
	if ctx.wantPath && len(ctx.path) > 0 {
		names := make([]string, len(ctx.path))
		for i, id := range ctx.path {
			names[i] = pl.nodes[id].name
		}
		res.Path = names
	}
	res.LatencyNs = pl.applyNoise(lat, flowHash)
}

// addFill opens a cache-fill record, reusing a pooled write buffer.
func (ctx *procCtx) addFill(fc *flowCache, keyOff, keyLen int, covers []uint64) {
	var buf []fieldWrite
	if n := len(ctx.fillBufs); n > 0 {
		buf = ctx.fillBufs[n-1][:0]
		ctx.fillBufs = ctx.fillBufs[:n-1]
	}
	ctx.fills = append(ctx.fills, fillRef{
		cache: fc, keyOff: keyOff, keyLen: keyLen, covers: covers, writes: buf,
	})
}

func (n *NIC) note(dropped bool) {
	n.processed.Add(1)
	if dropped {
		n.droppedCnt.Add(1)
	}
}

// applyNoise scales lat by a multiplicative noise factor that is a pure
// function of (seed, flow, noiseless latency). Being stateless, it gives
// identical results whatever order packets are processed in — the
// property the serial/parallel equivalence guarantee rests on.
func (pl *execPlan) applyNoise(lat float64, flowHash uint64) float64 {
	if pl.noiseStd <= 0 {
		return lat
	}
	key := pl.noiseSeed ^ stats.Mix64(flowHash) ^ stats.Mix64(math.Float64bits(lat))
	f := 1 + stats.NormAt(key)*pl.noiseStd
	if f < 0.5 {
		f = 0.5
	}
	return lat * f
}
