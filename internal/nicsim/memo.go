package nicsim

import (
	"math"
	"math/bits"
	"slices"
	"sync"

	"pipeleon/internal/packet"
	"pipeleon/internal/profile"
)

// Measure's trace memo. Measure throws its packets away, so all a packet
// leaves behind is its walk's effects outside the packet: counters, flow
// cache state, the virtual clock, the distinct keys it logged, and the
// aggregates of its Result. Under one plan those effects are a function
// of the header fields the plan can read, the sampling decision, and the
// outcome of each flow-cache step. So Measure records the effects of a
// flow's walk once, in a memo the plan owns, and replays them for the
// flow's later packets: the replay checks that every cache step would come
// out as recorded, then applies the record, without cloning the packet or
// evaluating a plan node. The counters of a burst's replays are added once
// per trace (fold), and in a later collector window a replay notes the
// record's table keys itself, gathered from the packet, when no action
// wrote what they read. DESIGN.md, "Measure replays a flow", has the
// effects table and the measurements behind the constants below.

const (
	// memoArenaWords caps a memo's records and traces, in words: a full
	// memo starts again empty.
	memoArenaWords = 160 << 10 / 8
	// memoMaxRecordWords is the largest record and trace kept: a walk that
	// would take more is not recorded.
	memoMaxRecordWords = 320
	// memoMaxRecords caps a memo's records, and its traces, so that their
	// indexes (at most twice as many slots) stay bounded too.
	memoMaxRecords = 1 << 12
	// memoDoorBits is the doorkeeper's size: a flow is recorded when its
	// key's bit is found set, on its second sighting.
	memoDoorBits = 1 << 14
	// memoProbation probes make a judgement: a memo that replayed fewer
	// than one in memoBreakEven of them stops probing for good.
	memoProbation = 1 << 14
	memoBreakEven = 2
)

// A flow's record, in arena words from its offset:
//
//	recHash  hash of the key words
//	recShape capacity in words | cache steps<<16 | flags<<24 | trace offset<<32
//	recKey   the key words
//
// then, in a sampled record, the flow hash the walk logged and the
// collector epoch it logged its keys in; then the cache steps. A hit is a
// head word (cache ref | 1<<32 | node<<33) and the stamp of the fill the
// node held, which names the cached result; a miss is a head word (cache
// ref | dropped<<33 | key words<<34 | writes<<49), the key's hash, the key
// words, and its fill's written field IDs, two to a word, and their
// values.
//
// A record's trace is what it shares with every flow that walked the same
// way, kept once, after the word trPend:
//
//	trHash   hash of the words after it
//	trShape  action sites | branch sites<<16 | cache sites<<32 | flags<<48
//	trCounts counter updates | migrations<<32
//	trLat    noiseless latency before the fill charge (float64 bits)
//	trClock  the virtual-clock advance of the walk's DMA crossings
//	trKeys   keyed table visits
//
// then the counter sites, four to a word: actions, branches, caches, each
// the index Burst counts it under; then the node ids of the keyed visits,
// in walk order.
const (
	recHash = iota
	recShape
	recKey
)

const (
	trPend = iota - 1 // the burst's replays of the trace, not yet folded
	trHash
	trShape
	trCounts
	trLat
	trClock
	trKeys
	trHead
)

// recRegathers flags a sampled record whose keys are all the ones their
// nodes gather from the packet as it came in: a replay in a later
// collector epoch notes them itself. A record whose walk keyed a table on
// a field an earlier action wrote is walked again instead.
const recRegathers = 1 << 24

const (
	flagDropped = 1 << iota
	flagVendorHit
)

// sampledBit is the sampling decision's bit in a key's first word, after
// the three header validity bits; keyFlagBits is the width of the flags.
const (
	sampledBit  = 1 << 3
	keyFlagBits = 4
)

// recSteps is where the steps of key's record start: after the key, and
// a sampled record's flow and epoch.
func recSteps(key []uint64) int {
	if key[0]&sampledBit != 0 {
		return recKey + len(key) + 2
	}
	return recKey + len(key)
}

// vendorRef is the cache ref of a vendor-cache step; a runtime cache's is
// its node id + 1.
const vendorRef int32 = 0

// stepFieldMax bounds a miss step's key words and writes: 15 bits each.
const stepFieldMax = 1<<15 - 1

// stepWords is the length of the step whose head word is head.
func stepWords(head uint64) int {
	if head>>32&1 != 0 {
		return 2
	}
	nw := int(head >> 49 & stepFieldMax)
	return 2 + int(head>>34&stepFieldMax) + (nw+1)/2 + nw
}

// traceMemo is the memo of one execution plan, its owner: a pointer-free
// arena of records and traces, an open-addressed index of each, and a
// doorkeeper bitset. Measure holds mu for a burst (TryLock: a burst that
// finds it held walks); a plan with a flow cache holds the cache lock too.
type traceMemo struct {
	mu    sync.Mutex
	owner *execPlan
	// reads is the owner's read set (see headerBit): the header fields its
	// keys, conditions and primitives can read. fields packs them into
	// key words, after the first word's flags.
	reads  uint64
	fields []keyField
	words  int

	arena          []uint64
	records, trace offsets
	door           []uint64
	// pending lists the traces the burst replayed sampled, their counts in
	// trPend: fold adds their sites to the burst's counters once each.
	pending []int32

	// probes and replays count the probation under way; off is the verdict
	// of one that replayed too few. renewals counts the replays that noted
	// their keys in a later epoch than their record's.
	probes, replays, renewals int
	off                       bool
}

type keyField struct {
	fid   packet.FieldID
	word  uint8
	shift uint8
}

// newTraceMemo returns an empty memo of pl, keyed on its read set reads.
func newTraceMemo(pl *execPlan, reads uint64) *traceMemo {
	m := &traceMemo{owner: pl}
	m.keyOn(reads)
	return m
}

// keyOn packs the header fields of reads (bit i for FieldID i) into key
// words, in FieldID order.
func (m *traceMemo) keyOn(reads uint64) {
	m.reads, m.fields, m.words = reads, m.fields[:0], 1
	used := keyFlagBits
	for fid := packet.FieldID(0); fid < 64; fid++ {
		if reads&headerBit(fid) == 0 {
			continue
		}
		w := packet.FieldWidth(packet.FieldName(fid))
		if used+w > 64 {
			m.words++
			used = 0
		}
		m.fields = append(m.fields, keyField{fid: fid, word: uint8(m.words - 1), shift: uint8(used)})
		used += w
	}
}

// memoable reports whether a plan's counter sites and node ids fit a
// trace's 16-bit site words.
func memoable(l *profile.Layout, nodes int) bool {
	return len(l.Actions) <= math.MaxUint16 && 2*len(l.Branches) <= math.MaxUint16 && 2*len(l.Caches) <= math.MaxUint16 &&
		nodes <= math.MaxUint16
}

// passTo empties the memo and gives it to next, the plan an entry
// operation made of its owner, its read set taking in reads, the read set
// of the table the operation rebuilt. The layout and the traffic are the
// owner's, so it goes on with the probation and its verdict; a burst
// still walking the owner finds the memo no longer its.
func (m *traceMemo) passTo(next *execPlan, reads uint64) {
	m.mu.Lock()
	m.owner = next
	if m.reads|reads != m.reads {
		m.keyOn(m.reads | reads)
	}
	if !m.off {
		m.clear()
	}
	m.mu.Unlock()
}

// acquire locks the memo for a burst of pl, or returns nil when there is
// none, another burst holds it, it is off, or it has passed to pl's
// successor.
func (m *traceMemo) acquire(pl *execPlan) *traceMemo {
	if m == nil || !m.mu.TryLock() {
		return nil
	}
	if m.off || m.owner != pl {
		m.mu.Unlock()
		return nil
	}
	// Counts a panicking burst left unfolded belong to no burst now.
	for _, t := range m.pending {
		m.arena[int(t)+trPend] = 0
	}
	m.pending = m.pending[:0]
	return m
}

// count notes a sampled replay of trace t, for the burst's fold.
func (m *traceMemo) count(t int) {
	if m.arena[t+trPend] == 0 {
		m.pending = append(m.pending, int32(t))
	}
	m.arena[t+trPend]++
}

// fold adds the counter sites of every trace the burst replayed to sink,
// as many times as it replayed it, and clears the counts.
func (m *traceMemo) fold(sink *profile.Burst) {
	a := m.arena
	for _, t32 := range m.pending {
		t := int(t32)
		n, shape := a[t+trPend], a[t+trShape]
		a[t+trPend] = 0
		sites := a[t+trHead:]
		i, end := 0, int(shape&0xffff)
		for ; i < end; i++ {
			sink.AddAction(siteAt(sites, i), n)
		}
		for end += int(shape >> 16 & 0xffff); i < end; i++ {
			sink.AddBranch(siteAt(sites, i), n)
		}
		for end += int(shape >> 32 & 0xffff); i < end; i++ {
			sink.AddCache(siteAt(sites, i), n)
		}
	}
	m.pending = m.pending[:0]
}

// siteAt is the i-th 16-bit site of a trace's site words.
func siteAt(sites []uint64, i int) int { return int(uint16(sites[i/4] >> (16 * (i % 4)))) }

// judge closes a probation when it is over: a memo that replayed fewer
// than one in memoBreakEven of its probes goes off and lets its buffers go.
func (m *traceMemo) judge() {
	if m.probes < memoProbation {
		return
	}
	if m.replays*memoBreakEven < m.probes {
		m.off = true
		m.arena, m.records, m.trace, m.door = nil, offsets{}, offsets{}, nil
	}
	m.probes, m.replays = 0, 0
}

// clear empties the memo, keeping its buffers; a burst that clears it
// folds its replays first.
func (m *traceMemo) clear() {
	m.arena = m.arena[:0]
	m.pending = m.pending[:0]
	m.records.reset()
	m.trace.reset()
	clear(m.door)
}

// key gathers p's key words into buf.
func (m *traceMemo) key(p *packet.Packet, sampled bool, buf []uint64) []uint64 {
	k := slices.Grow(buf[:0], m.words)[:m.words]
	clear(k)
	k[0] = b2u(p.HasIPv4) | b2u(p.HasTCP)<<1 | b2u(p.HasUDP)<<2
	if sampled {
		k[0] |= sampledBit
	}
	for _, f := range m.fields {
		k[f.word] |= p.GetID(f.fid) << f.shift
	}
	return k
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// lookup returns the offset of key's record (h the key's hash), or -1.
func (m *traceMemo) lookup(key []uint64, h uint64) int {
	x := &m.records
	if x.n == 0 {
		return -1
	}
	for i := h >> x.shift; x.slots[i] != 0; i = (i + 1) & x.mask() {
		if o := int(x.slots[i]) - 1; m.arena[o+recHash] == h && slices.Equal(m.arena[o+recKey:][:len(key)], key) {
			return o
		}
	}
	return -1
}

// findTrace returns the offset of a trace equal to tr, or -1.
func (m *traceMemo) findTrace(tr []uint64) int {
	x := &m.trace
	if x.n == 0 {
		return -1
	}
	for i := tr[trHash] >> x.shift; x.slots[i] != 0; i = (i + 1) & x.mask() {
		// Equal shapes and keyed visits are equal lengths.
		if o := int(x.slots[i]) - 1; m.arena[o+trShape] == tr[trShape] && m.arena[o+trKeys] == tr[trKeys] &&
			slices.Equal(m.arena[o:][:len(tr)], tr) {
			return o
		}
	}
	return -1
}

// sighted reports whether h was seen since the memo was last empty, and
// notes that it has been.
func (m *traceMemo) sighted(h uint64) bool {
	if m.door == nil {
		m.door = make([]uint64, memoDoorBits/64)
	}
	b := h & (memoDoorBits - 1)
	w, bit := &m.door[b>>6], uint64(1)<<(b&63)
	seen := *w&bit != 0
	*w |= bit
	return seen
}

// alloc extends the arena by n words, which the cap leaves room for, and
// returns their offset.
func (m *traceMemo) alloc(n int) int {
	o := len(m.arena)
	if o+n > cap(m.arena) {
		grown := make([]uint64, o, min(max(2*cap(m.arena), o+n, 1<<10), memoArenaWords))
		copy(grown, m.arena)
		m.arena = grown
	}
	m.arena = m.arena[:o+n]
	return o
}

// offsets is an open-addressed index of arena offsets by the hash their
// entry starts with: offset + 1 per slot, 0 = empty, at most half full.
type offsets struct {
	slots []uint32
	shift uint // 64 - log2(len(slots))
	n     int
}

func (x *offsets) mask() uint64 { return uint64(len(x.slots) - 1) }

// add enters offset o, of hash h, growing the index when it is half full.
func (x *offsets) add(arena []uint64, h uint64, o int) {
	if 2*(x.n+1) > len(x.slots) {
		old := x.slots
		x.slots = make([]uint32, max(64, 2*len(old)))
		x.shift = uint(64 - bits.TrailingZeros(uint(len(x.slots))))
		for _, v := range old {
			if v != 0 {
				x.slots[x.find(arena[v-1], 0)] = v
			}
		}
	}
	x.slots[x.find(h, 0)] = uint32(o + 1)
	x.n++
}

// find returns the first slot of h's probe run that holds v (0: the first
// empty one).
func (x *offsets) find(h uint64, v uint32) uint64 {
	i := h >> x.shift
	for x.slots[i] != v {
		i = (i + 1) & x.mask()
	}
	return i
}

func (x *offsets) reset() {
	clear(x.slots)
	x.n = 0
}

// recorder is what a walk leaves for the memo while Measure records a
// flow (procCtx.rec): the effects the record is made of, in walk order.
type recorder struct {
	actions, branches, caches []uint16 // counter sites, as Burst indexes them
	keyed                     []uint16 // the nodes of the keyed visits
	keys                      []uint64 // the keys they noted
	steps                     []recStep
	clock                     int64   // the DMA crossings' virtual-clock advance
	latPre                    float64 // noiseless latency before the fill charge
	trace                     []uint64
}

// recStep is one flow-cache step of a recorded walk: a hit of node with
// stamp, or a miss of the key at keyBuf[keyOff:keyOff+keyLen], whose
// fill is the walk's next in procCtx.fills.
type recStep struct {
	ref            int32
	node           int32 // -1: a miss
	stamp, hash    uint64
	keyOff, keyLen int
}

func (r *recorder) reset() {
	r.actions, r.branches, r.caches = r.actions[:0], r.branches[:0], r.caches[:0]
	r.keyed, r.keys = r.keyed[:0], r.keys[:0]
	r.steps = r.steps[:0]
	r.clock, r.latPre = 0, 0
}

func (r *recorder) action(site int32) { r.actions = append(r.actions, uint16(site)) }

func (r *recorder) branch(slot int32, taken bool) {
	r.branches = append(r.branches, uint16(2*slot)+uint16(b2u(!taken)))
}

func (r *recorder) cache(slot int32, hit bool) {
	r.caches = append(r.caches, uint16(2*slot)+uint16(b2u(!hit)))
}

// key notes that the visit of node id noted key k.
func (r *recorder) key(id int32, k uint64) {
	r.keyed, r.keys = append(r.keyed, uint16(id)), append(r.keys, k)
}

// step notes a get of fc (a vendor or runtime cache, ref) for the key at
// keyBuf[off:off+n] of hash h, which found node id (or nothing).
func (r *recorder) step(fc *flowCache, ref int32, off, n int, h uint64, id int32) {
	s := recStep{ref: ref, node: id, keyOff: off, keyLen: n, hash: h}
	if id >= 0 {
		s.stamp = fc.stamp(id)
	}
	r.steps = append(r.steps, s)
}

// buildTrace lays out the trace of the walk with Result res in r.trace,
// or reports false when its counts do not fit their fields.
func (r *recorder) buildTrace(res *Result) bool {
	if res.CounterUpdates > math.MaxUint32 || res.Migrations > math.MaxUint32 {
		return false
	}
	var flags uint64
	if res.Dropped {
		flags |= flagDropped
	}
	if res.VendorCacheHit {
		flags |= flagVendorHit
	}
	t := append(r.trace[:0], 0,
		uint64(len(r.actions))|uint64(len(r.branches))<<16|uint64(len(r.caches))<<32|flags<<48,
		uint64(res.CounterUpdates)|uint64(res.Migrations)<<32,
		math.Float64bits(r.latPre), uint64(r.clock), uint64(len(r.keyed)))
	n := 0
	for _, sites := range [4][]uint16{r.actions, r.branches, r.caches, r.keyed} {
		for _, s := range sites {
			if n%4 == 0 {
				t = append(t, 0)
			}
			t[len(t)-1] |= uint64(s) << (16 * (n % 4))
			n++
		}
	}
	t[trHash] = hashWords(t[trHash+1:])
	r.trace = t
	return true
}

// store records the walk ctx just made of p, with key (hash h): in place
// of the record at at (-1: none) when it fits there, elsewhere otherwise,
// its trace shared with every record that has it. A memo it empties to
// make room folds the burst's replays into sink first.
func (m *traceMemo) store(at int, key []uint64, h uint64, p *packet.Packet, ctx *procCtx, sink *profile.Burst, res *Result, flowHash, epoch uint64) {
	r := ctx.rec
	if !r.buildTrace(res) {
		return
	}
	var flags uint64
	if m.keysFromInput(r, p) {
		flags |= recRegathers
	}
	size := recSteps(key)
	fi := 0
	for _, s := range r.steps {
		size += 2
		if s.node < 0 {
			nw := len(ctx.fills[fi].writes)
			if s.keyLen > stepFieldMax || nw > stepFieldMax {
				return
			}
			size += s.keyLen + (nw+1)/2 + nw
			fi++
		}
	}
	if size+len(r.trace) > memoMaxRecordWords || len(r.steps) > math.MaxUint8 {
		return
	}
	t := m.findTrace(r.trace)
	capacity := 0
	if at >= 0 {
		capacity = int(uint16(m.arena[at+recShape]))
	}
	need := 0
	if size > capacity {
		need += size
	}
	if t < 0 {
		need += len(r.trace) + 1
	}
	if len(m.arena)+need > memoArenaWords || at < 0 && m.records.n == memoMaxRecords || t < 0 && m.trace.n == memoMaxRecords {
		m.fold(sink)
		m.clear()
		at, t, capacity = -1, -1, 0
	}
	if t < 0 {
		t = m.alloc(len(r.trace)+1) - trPend
		m.arena[t+trPend] = 0
		copy(m.arena[t:], r.trace)
		m.trace.add(m.arena, r.trace[trHash], t)
	}
	o := at
	if size > capacity {
		o, capacity = m.alloc(size), size
	}
	m.encode(m.arena[o:], uint64(capacity)|flags, t, key, h, ctx, flowHash, epoch)
	switch {
	case o == at:
	case at >= 0:
		m.records.slots[m.records.find(h, uint32(at+1))] = uint32(o + 1)
	default:
		m.records.add(m.arena, h, o)
	}
}

// keysFromInput reports whether every key the recorded walk noted is the
// one its node gathers from p, the packet as it came in: then no action
// before the visit wrote a field the key reads.
func (m *traceMemo) keysFromInput(r *recorder, p *packet.Packet) bool {
	for i, id := range r.keyed {
		if m.owner.nodes[id].keyOf(p) != r.keys[i] {
			return false
		}
	}
	return true
}

// keyOf is the key a visit of nd notes for p, gathered as the walk
// gathers it.
func (nd *execNode) keyOf(p *packet.Packet) uint64 {
	var buf [8]uint64
	vals := buf[:0]
	for i, fid := range nd.fids {
		vals = append(vals, p.GetID(fid)&nd.kmasks[i])
	}
	return notedKey(vals)
}

// encode writes the record of capacity words (and the record flags), of
// trace t, at a.
func (m *traceMemo) encode(a []uint64, capacity uint64, t int, key []uint64, h uint64, ctx *procCtx, flowHash, epoch uint64) {
	r := ctx.rec
	a[recHash] = h
	a[recShape] = capacity | uint64(len(r.steps))<<16 | uint64(t)<<32
	p := recKey + copy(a[recKey:], key)
	if key[0]&sampledBit != 0 {
		a[p], a[p+1] = flowHash, epoch
		p += 2
	}
	fi := 0
	for _, s := range r.steps {
		if s.node >= 0 {
			a[p], a[p+1] = uint64(uint32(s.ref))|1<<32|uint64(s.node)<<33, s.stamp
			p += 2
			continue
		}
		f := &ctx.fills[fi]
		fi++
		a[p] = uint64(uint32(s.ref)) | b2u(f.dropped)<<33 | uint64(s.keyLen)<<34 | uint64(len(f.writes))<<49
		a[p+1] = s.hash
		p += 2 + copy(a[p+2:], ctx.keyBuf[s.keyOff:s.keyOff+s.keyLen])
		for i, w := range f.writes {
			if i%2 == 0 {
				a[p+i/2] = 0
			}
			a[p+i/2] |= uint64(uint32(w.id)) << (32 * (i % 2))
		}
		p += (len(f.writes) + 1) / 2
		for _, w := range f.writes {
			a[p] = w.value
			p++
		}
	}
}

// cacheOf resolves a step's cache ref.
func (pl *execPlan) cacheOf(ref int32) *flowCache {
	if ref == vendorRef {
		return pl.vendor
	}
	return pl.nodes[ref-1].fc
}

// replay applies the record at o (key its key) for pkt, of flow hash
// flowHash, filling res as the walk would. It first peeks every cache step
// of the record; when one would not come out as recorded — or a sampled
// record logged its keys in an earlier reset epoch of the collector and
// cannot gather them from pkt — it reports false, having changed nothing.
// A sampled replay's counters wait in its trace for the burst's fold.
func (n *NIC) replay(pl *execPlan, m *traceMemo, o int, key []uint64, pkt *packet.Packet, ctx *procCtx, sink *profile.Burst, epoch, flowHash uint64, res *Result) bool {
	a := m.arena
	sampled := key[0]&sampledBit != 0
	flow := o + recKey + len(key) // a sampled record's flow, then epoch
	shape := a[o+recShape]
	renew := sampled && a[flow+1] != epoch
	if renew && shape&recRegathers == 0 {
		return false
	}
	first, steps := o+recSteps(key), int(shape>>16&0xff)

	// Peek: every hit's node must still hold the fill it held, and every
	// missed key must still be missing.
	for s, p := 0, first; s < steps; s, p = s+1, p+stepWords(a[p]) {
		head := a[p]
		fc := pl.cacheOf(int32(uint32(head)))
		if head>>32&1 != 0 {
			if !fc.holds(int32(head>>33), a[p+1]) {
				return false
			}
		} else if fc.find(a[p+2:][:head>>34&stepFieldMax], a[p+1]) >= 0 {
			return false
		}
	}

	// Apply, in the walk's order: the gets, the clock, the fills.
	misses := 0
	for s, p := 0, first; s < steps; s, p = s+1, p+stepWords(a[p]) {
		head := a[p]
		fc := pl.cacheOf(int32(uint32(head)))
		if head>>32&1 != 0 {
			fc.touch(int32(head >> 33))
			fc.hits++
		} else {
			fc.misses++
			misses++
		}
	}
	t := int(shape >> 32)
	if clock := int64(a[t+trClock]); clock != 0 {
		n.vnow.Add(clock)
	}
	lat := math.Float64frombits(a[t+trLat])
	if misses > 0 {
		now := n.vnow.Add(max(1, int64(lat)))
		filled := false
		for s, p := 0, first; s < steps; s, p = s+1, p+stepWords(a[p]) {
			head := a[p]
			if head>>32&1 != 0 {
				continue
			}
			kl, nw := int(head>>34&stepFieldMax), int(head>>49&stepFieldMax)
			ids, vals := a[p+2+kl:], a[p+2+kl+(nw+1)/2:][:nw]
			ctx.writes = ctx.writes[:0]
			for i, v := range vals {
				ctx.writes = append(ctx.writes, fieldWrite{id: packet.FieldID(int32(uint32(ids[i/2] >> (32 * (i % 2))))), value: v})
			}
			if pl.cacheOf(int32(uint32(head))).fill(a[p+2:][:kl], a[p+1], ctx.writes, head>>33&1 != 0, now) {
				filled = true
			}
		}
		if filled {
			lat += pl.cacheFillCost
		}
	}

	// The counters; the flow when another flow logged the record; in a new
	// epoch the keys too, and the record logged them in this one.
	tshape := a[t+trShape]
	if sampled {
		m.count(t)
		switch {
		case renew:
			m.noteKeys(t, pkt, sink)
			sink.AddFlow(flowHash)
			a[flow], a[flow+1] = flowHash, epoch
			m.renewals++
		case a[flow] != flowHash:
			sink.AddFlow(flowHash)
		}
	}
	counts, flags := a[t+trCounts], tshape>>48
	*res = Result{
		Dropped:        flags&flagDropped != 0,
		VendorCacheHit: flags&flagVendorHit != 0,
		CounterUpdates: int(uint32(counts)),
		Migrations:     int(counts >> 32),
	}
	ctx.finish(pl, res, lat, flowHash)
	return true
}

// noteKeys notes, for p, the key of every keyed visit of trace t.
func (m *traceMemo) noteKeys(t int, p *packet.Packet, sink *profile.Burst) {
	a := m.arena
	shape := a[t+trShape]
	first := int(shape&0xffff) + int(shape>>16&0xffff) + int(shape>>32&0xffff)
	sites := a[t+trHead:]
	for i := first; i < first+int(a[t+trKeys]); i++ {
		nd := &m.owner.nodes[siteAt(sites, i)]
		sink.AddKey(int(nd.keySlot), nd.keyOf(p))
	}
}
