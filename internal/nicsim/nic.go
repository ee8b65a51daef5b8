package nicsim

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/profile"
	"pipeleon/internal/stats"
)

// Config configures a NIC instance.
type Config struct {
	// Params is the target cost/performance model.
	Params costmodel.Params
	// VendorCache enables a Netronome-style built-in whole-program flow
	// cache keyed on the 5-tuple (§5.2.1: "Netronome SmartNICs have a
	// vendor-native flow cache feature for the whole program").
	VendorCache bool
	// VendorCacheBudget is its LRU capacity (entries).
	VendorCacheBudget int
	// Collector receives profiling counters when Instrument is true.
	Collector *profile.Collector
	// Instrument enables per-packet counter updates (and their latency
	// cost, §5.4.1).
	Instrument bool
	// Seed / NoiseStdDev add deterministic multiplicative measurement
	// noise, so "hardware measurements" differ from model predictions the
	// way real measurements do (Figure 5's ~5% deviation). The noise is a
	// pure function of (seed, flow, noiseless latency), so it is
	// independent of where and when it is applied: Measure's finish stage
	// applies it beside the walk, bit-identical to Process.
	Seed        uint64
	NoiseStdDev float64
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
}

// NIC is one emulated SmartNIC running a program.
//
// The data path walks the execution plan, read through an atomic pointer,
// with a pooled scratch context: lock-free, unless the plan has a flow
// cache, when cacheMu is held once per burst. n.mu serializes the control
// plane (Swap, entry mutation, introspection), which rebuilds affected
// plan state copy-on-write and publishes it atomically.
type NIC struct {
	mu     sync.RWMutex
	prog   *p4ir.Program
	cfg    Config
	kern   costmodel.Kernel
	tables map[string]*runtimeTable
	conds  map[string]condFunc
	caches map[string]*flowCache
	// coveredBy maps a table to the runtime caches that must invalidate
	// when it changes.
	coveredBy   map[string][]*flowCache
	vendorCache *flowCache
	// cacheMu guards every flow cache of the NIC, runtime and vendor.
	cacheMu sync.Mutex

	plan    atomic.Pointer[execPlan]
	ctxPool sync.Pool
	ctxSeq  atomic.Uint32

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
	// chunk, set only on Measure's walk, takes each packet's noise and the
	// burst's distinct keys for the finish stage (see finisher).
	chunk *finishChunk

	// Measure's scratch: the clone a walked packet runs on (it keeps its
	// metadata buffer across calls), the recorder rec points at while a
	// walk is recorded, and the buffer of the memo key.
	scratch packet.Packet
	rec     *recorder
	recBuf  recorder
	memoKey []uint64
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
	hash           uint64   // the key's, from the miss
	keyOff, keyLen int      // in words of keyBuf
	covers         []uint64 // node-id bitset; nil = every table (vendor)
	writes         []fieldWrite
	dropped        bool
}

// New checks prog and builds a NIC executing it under cfg.
func New(prog *p4ir.Program, cfg Config) (*NIC, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
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
		})
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
// rewritten, merged and generated tables install entry by entry. Every
// table's entries stay the array the caller's program holds (Swap's clone
// shares it): the device keeps no copy of its own. A runtime
// cache of unchanged identity (name + covered span + budget) keeps its
// contents: a re-optimization that keeps it does not cold-start it.
func (n *NIC) load(prog *p4ir.Program) error {
	tables := make(map[string]*runtimeTable, len(prog.Tables))
	conds := make(map[string]condFunc, len(prog.Conds))
	caches := map[string]*flowCache{}
	coveredBy := map[string][]*flowCache{}
	for name, t := range prog.Tables {
		if old := n.tables[name]; old != nil && sameStore(old.tbl, t) {
			tables[name] = old.fork()
			tables[name].tbl = t
		} else {
			tables[name] = buildTable(t, t.Entries, n.kern.PinnedM(t))
		}
		if spec, ok := t.CacheMeta(); ok && !spec.Prepopulated {
			var fc *flowCache
			if old, exists := n.caches[name]; exists && sameCacheIdentity(old.spec, spec) {
				n.cacheMu.Lock()
				old.spec = spec // routing may have changed; contents survive
				n.cacheMu.Unlock()
				fc = old
			} else {
				fc = newFlowCache(spec)
			}
			caches[name] = fc
			for _, covered := range spec.Covers {
				coveredBy[covered] = append(coveredBy[covered], fc)
			}
		}
	}
	for name, c := range prog.Conds {
		f, err := compileCond(c)
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
// Entries and actions are shared values (p4ir.Program.Clone): one array or
// one action is equal to itself without a look inside.
func sameStore(a, b *p4ir.Table) bool {
	prim := func(p, q p4ir.Primitive) bool { return p.Op == q.Op && slices.Equal(p.Args, q.Args) }
	act := func(x, y *p4ir.Action) bool {
		return x == y || x.Name == y.Name && slices.EqualFunc(x.Primitives, y.Primitives, prim)
	}
	entry := func(x, y p4ir.Entry) bool {
		return x.Priority == y.Priority && x.Action == y.Action && slices.Equal(x.Match, y.Match) && slices.Equal(x.Args, y.Args)
	}
	aliased := len(a.Entries) == len(b.Entries) && (len(a.Entries) == 0 || &a.Entries[0] == &b.Entries[0])
	return a.DefaultAction == b.DefaultAction && a.MaxEntries == b.MaxEntries && slices.Equal(a.Keys, b.Keys) &&
		slices.EqualFunc(a.Actions, b.Actions, act) && (aliased || slices.EqualFunc(a.Entries, b.Entries, entry))
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
// and runtime cache contents (see load); the rest start afresh. prog is
// well formed, checked by its maker: Swap does not check it again.
func (n *NIC) Swap(prog *p4ir.Program) error {
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
// Result.Path. All scratch state lives in a pooled context; a plan with a
// flow cache is loaded and walked under the cache lock.
func (n *NIC) Process(pkt *packet.Packet) Result {
	pl := n.plan.Load()
	if pl.cached {
		n.cacheMu.Lock()
		defer n.cacheMu.Unlock()
		pl = n.plan.Load()
	}
	ctx := n.ctxPool.Get().(*procCtx)
	ctx.wantPath = true
	sink := ctx.sink(pl)
	var res Result
	n.run(pl, ctx, pkt, sink, sink != nil && sink.Sampled(), &res)
	sink.Flush()
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
// through sink, which the caller flushes, when sampled (the caller asked
// sink.Sampled() for the packet). While Measure records the packet's flow (ctx.rec is
// set), every effect the walk has outside the packet is also noted there.
// run fills res in place rather than returning it: the burst path calls
// it once per packet, and writing through the pointer keeps the Result
// (with its Path slice header) out of the call's copy traffic.
func (n *NIC) run(pl *execPlan, ctx *procCtx, pkt *packet.Packet, sink *profile.Burst, sampled bool, res *Result) {
	*res = Result{}
	lat := pl.perPacketOver
	rec := ctx.rec
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
		id, h := pl.vendor.get(ctx.keyBuf[off:])
		if rec != nil {
			rec.step(pl.vendor, vendorRef, off, len(ctx.keyBuf)-off, h, id)
		}
		if id >= 0 {
			ids, vals, drop := pl.vendor.result(id)
			for i, fid := range ids {
				pkt.SetID(fid, vals[i])
			}
			lat += float64(len(ids)) * pl.Act
			res.VendorCacheHit = true
			res.Dropped = drop
			if rec != nil {
				rec.latPre = lat
			}
			ctx.finish(pl, res, lat, flowHash)
			return
		}
		ctx.addFill(pl.vendor, h, off, len(ctx.keyBuf)-off, nil)
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
				if rec != nil {
					rec.branch(nd.condSlot, taken)
				}
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
				if rec != nil {
					rec.clock += int64(cost)
				}
			}
			res.Migrations++
			curTier = nd.tier
		}
		mult := pl.Speed[curTier]
		// Gather the width-masked key fields, by compiled field ID; most
		// keys are one field, fetched from the node without the loop.
		vals := ctx.values[:1]
		if nd.oneWord {
			vals[0] = pkt.GetID(nd.fid) & nd.kmask
		} else {
			vals = vals[:0]
			for i, fid := range nd.fids {
				vals = append(vals, pkt.GetID(fid)&nd.kmasks[i])
			}
			ctx.values = vals
		}

		if nd.kind == nkCache {
			lat += pl.Mat * mult
			off := len(ctx.keyBuf)
			ctx.keyBuf = append(ctx.keyBuf, vals...)
			id, h := nd.fc.get(ctx.keyBuf[off:])
			if rec != nil {
				rec.step(nd.fc, cur+1, off, len(ctx.keyBuf)-off, h, id)
			}
			if id >= 0 {
				wids, wvals, drop := nd.fc.result(id)
				for i, fid := range wids {
					pkt.SetID(fid, wvals[i])
				}
				lat += float64(len(wids)) * pl.Act * mult
				if sampled {
					sink.IncCache(int(nd.cacheSlot), true)
					sink.IncAction(int(nd.hitSite))
					if rec != nil {
						rec.cache(nd.cacheSlot, true)
						rec.action(nd.hitSite)
					}
					res.CounterUpdates++
					lat += pl.Counter * mult
				} else if pl.instrument {
					lat += pl.sampleCheckCost * mult
				}
				if drop {
					dropped = true
					break
				}
				cur = nd.hitNext
				continue
			}
			if sampled {
				sink.IncCache(int(nd.cacheSlot), false)
				sink.IncAction(int(nd.missSite))
				if rec != nil {
					rec.cache(nd.cacheSlot, false)
					rec.action(nd.missSite)
				}
				res.CounterUpdates++
				lat += pl.Counter * mult
			} else if pl.instrument {
				lat += pl.sampleCheckCost * mult
			}
			ctx.addFill(nd.fc, h, off, len(ctx.keyBuf)-off, nd.covers)
			cur = nd.missNext
			continue
		}

		// Ordinary (or pre-populated merged-cache) table.
		if sampled && len(vals) > 0 {
			k := notedKey(vals)
			sink.AddKey(int(nd.keySlot), k)
			if rec != nil {
				rec.key(cur, k)
			}
		}
		var se *storedEntry
		if nd.oneWord && len(nd.views) == 1 {
			// One word in one group, the hottest shape: probed inline.
			se = nd.views[0].probe1(vals[0])
		} else {
			se = nd.lookup(vals)
		}
		act := nd.defaultAct
		var cargs []operand
		if se != nil {
			act, cargs = se.cact, se.cargs
		}
		lat += nd.charge * mult
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
			if rec != nil {
				rec.action(nd.actSites[act.idx])
				if nd.prepopSlot >= 0 {
					rec.cache(nd.prepopSlot, !act.isCacheMiss)
				}
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

	if rec != nil {
		rec.latPre = lat
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
		now := n.vnow.Add(tick)
		filled := false
		for fi := range ctx.fills {
			f := &ctx.fills[fi]
			if f.cache.fill(ctx.keyBuf[f.keyOff:f.keyOff+f.keyLen], f.hash, f.writes, f.dropped, now) {
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
	ctx.finish(pl, res, lat, flowHash)
}

// finish sets a packet's latency: lat with the measurement noise applied,
// or — on Measure's walk — lat as it is, the flow hash the noise is keyed
// by left in the chunk for the finish stage to apply it.
func (ctx *procCtx) finish(pl *execPlan, res *Result, lat float64, flowHash uint64) {
	if ctx.chunk != nil {
		ctx.chunk.hashes = append(ctx.chunk.hashes, flowHash)
		res.LatencyNs = lat
		return
	}
	res.LatencyNs = pl.applyNoise(lat, flowHash)
}

// notedKey is the distinct key a table visit notes for its gathered key
// words: a one-field key is its own identity; wider keys fold to a hash.
func notedKey(vals []uint64) uint64 {
	if len(vals) > 1 {
		return hashWords(vals)
	}
	return vals[0]
}

// addFill opens a cache-fill record for a miss of key hash h, reusing a
// pooled write buffer.
func (ctx *procCtx) addFill(fc *flowCache, h uint64, keyOff, keyLen int, covers []uint64) {
	var buf []fieldWrite
	if n := len(ctx.fillBufs); n > 0 {
		buf = ctx.fillBufs[n-1][:0]
		ctx.fillBufs = ctx.fillBufs[:n-1]
	}
	ctx.fills = append(ctx.fills, fillRef{
		cache: fc, hash: h, keyOff: keyOff, keyLen: keyLen, covers: covers, writes: buf,
	})
}

// applyNoise scales lat by a multiplicative noise factor that is a pure
// function of (seed, flow, noiseless latency). Being stateless, it gives
// identical results whatever order packets are processed in — the
// property that lets Measure's finish stage apply it off the walk.
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
