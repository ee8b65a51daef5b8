// Package nicsim is the software SmartNIC emulator: a multicore
// run-to-completion packet processing engine executing p4ir programs with
// per-packet cycle accounting driven by a costmodel.Params target.
//
// It reproduces (from scratch) the role of the paper's BMv2-based emulator
// (§5.1 setup 3) and stands in for the BlueField2 and Agilio CX hardware:
// exact tables are single hash tables, LPM tables one hash table per
// distinct prefix length, ternary tables one hash table per distinct mask
// — so the number of probes the emulator actually performs is exactly the
// m the cost model charges, making cost-model validation (Figure 5) a
// genuine cross-check of two independent code paths.
package nicsim

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
)

const fib64 = 0x9E3779B97F4A7C15

// storedEntry is the executable form of one installed entry, never written
// once stored (ModifyEntry stores a fresh one). match, seq and prefixBits
// are what a delete needs to leave the table as a rebuild of Table.Entries
// would: the match as installed, the install order, the probe rank.
type storedEntry struct {
	cact       *compiledAction
	cargs      []operand // entry action-data, pre-parsed
	priority   int
	key        []uint64  // match values under the group's masks
	kbuf       [2]uint64 // backs key up to two words: one allocation less an entry
	match      []p4ir.MatchValue
	seq        uint64
	prefixBits int
}

// slot tags a stored entry with the word it is found by: the masked key
// itself in a one-word group, where a tag match is a key match, and a hash
// of the masked words otherwise. Interleaved so a probe touches one cache
// line; v == nil marks an empty slot, which leaves key 0 usable.
type slot struct {
	k uint64
	v *storedEntry
}

// pageSlots is the unit of copy-on-write: an entry operation copies the
// 4 KB page it writes to, not the slot array, so its cost does not grow
// with the table (BenchmarkEntryOp at 2 000 and 16 000 entries).
//
// tinySlots is the slot count up to which every key's home is slot 0.
// Linear probing from one home keeps the keys packed at the front, so a
// probe is a scan of at most tinySlots/2 tags: no multiply, and branches
// that predict where a hashed probe of a half-full table is a coin toss.
// Worth 6 % of a packet on the 110-table program, 17 % on the 10-table one
// (BenchmarkEmulatorProcessBurst*); BenchmarkLookup/ternary-tiny tracks it.
const (
	pageBits  = 8
	pageSlots = 1 << pageBits
	tinySlots = 8
)

// maskGroup is one hash table of a multi-hash-table match structure — the
// emulator's stand-in for an SRAM exact-match bank: open addressing,
// Fibonacci hashing, linear probing, at most half full. Of the entries
// that share a masked key only the winner (highest priority, first
// installed on a tie) has a slot; the others wait in shadowed until a
// delete lets the best of them resurface.
//
// A published group is immutable. The mutators below belong to its owner:
// the table under construction, or the copy runtimeTable.own made, which
// shares its pages with the published group until set copies the ones it
// writes. What a one-word probe of a small group reads comes first, in one
// cache line: a 110-table program does not fit L1, and a line a table shows.
type maskGroup struct {
	mask0 uint64 // masks[0]
	shift uint   // 64 - log2(slot count); 64 in a tiny group
	// pages hold slot i at pages[i>>pageBits][i&(pageSlots-1)]; a group of
	// at most pageSlots slots has one page of just that many, and flat is
	// that page, one load closer to the probe (empty in a larger group).
	flat  []slot
	pages [][]slot
	mask  uint64 // slot count - 1
	masks []uint64
	// shared is the published page directory a copy still has pages of.
	shared   [][]slot
	live     int // occupied slots
	shadowed []*storedEntry
	// prefixBits and firstSeq are those of the group's first-installed
	// entry; groups are probed by descending prefixBits (LPM: longest
	// prefix first), then ascending firstSeq.
	prefixBits int
	firstSeq   uint64
}

// home is the slot a tag's probe run starts at.
func (g *maskGroup) home(k uint64) uint64 {
	return k * fib64 >> g.shift
}

func (g *maskGroup) at(i uint64) *slot {
	if i < uint64(len(g.flat)) { // the bounds check, and the small-group test
		return &g.flat[i]
	}
	return &g.pages[i>>pageBits][i&(pageSlots-1)]
}

// set writes slot i, first copying its page if readers may hold it.
func (g *maskGroup) set(i uint64, s slot) {
	p := i >> pageBits
	if g.shared != nil && &g.pages[p][0] == &g.shared[p][0] {
		g.pages[p] = slices.Clone(g.pages[p])
	}
	g.pages[p][i&(pageSlots-1)] = s
	if len(g.pages) == 1 {
		g.flat = g.pages[0]
	}
}

// probe1 is find for the commonest shape, a one-word group of one page:
// a tag match is a key match, the slot array is at hand, and the loop is
// a few instructions a slot and small enough to inline into the walk.
func (g *maskGroup) probe1(v uint64) *storedEntry {
	k, slots := v&g.mask0, g.flat
	mask := uint64(len(slots) - 1)
	for i := g.home(k) & mask; ; i = (i + 1) & mask {
		if s := &slots[i]; s.k == k || s.v == nil {
			return s.v
		}
	}
}

// probePaged is probe1 through the page directory, for one-word groups of
// more than one page: big enough that a call does not show, and out of
// line so probe1 stays small.
func (g *maskGroup) probePaged(v uint64) *storedEntry {
	k := v & g.mask0
	for i := g.home(k); ; i = (i + 1) & g.mask {
		if s := &g.pages[i>>pageBits][i&(pageSlots-1)]; s.k == k || s.v == nil {
			return s.v
		}
	}
}

// find returns the slot that holds the winner for values — masked or not,
// masking is idempotent — or the empty slot that ends its probe run.
func (g *maskGroup) find(values []uint64) uint64 {
	k := g.slotKey(values)
	for i := g.home(k); ; i = (i + 1) & g.mask {
		if s := g.at(i); s.v == nil || s.k == k && s.v.keyed(values, g.masks) {
			return i
		}
	}
}

// slotKey is the word a key's slot is tagged with.
func (g *maskGroup) slotKey(values []uint64) uint64 {
	if len(g.masks) == 1 {
		return values[0] & g.masks[0]
	}
	h := uint64(14695981039346656037)
	for i, m := range g.masks {
		h = (h ^ values[i]&m) * fib64
		h ^= h >> 32
	}
	return h
}

func (se *storedEntry) keyed(values, masks []uint64) bool {
	for i, k := range se.key {
		if values[i]&masks[i] != k {
			return false
		}
	}
	return true
}

// reserve makes room for n more keys, rehashing by slot tag into fresh
// pages when the present ones would pass half full.
func (g *maskGroup) reserve(n int) {
	size := max(int(g.mask)+1, 4)
	if g.pages != nil && size >= 2*(g.live+n) {
		return
	}
	for size < 2*(g.live+n) {
		size <<= 1
	}
	old := g.pages
	g.pages, g.shared = make([][]slot, max(size>>pageBits, 1)), nil
	for p := range g.pages {
		g.pages[p] = make([]slot, min(size, pageSlots))
	}
	g.flat = nil
	if len(g.pages) == 1 {
		g.flat = g.pages[0]
	}
	g.mask, g.shift = uint64(size-1), uint(64-bits.TrailingZeros(uint(size)))
	if size <= tinySlots {
		g.shift = 64 // shifts every key's home to slot 0
	}
	for _, page := range old {
		for _, s := range page {
			if s.v != nil {
				i := g.home(s.k)
				for g.at(i).v != nil {
					i = (i + 1) & g.mask
				}
				*g.at(i) = s
			}
		}
	}
}

// add installs an entry; the caller reserved room for it.
func (g *maskGroup) add(se *storedEntry) {
	i := g.find(se.key)
	switch w := g.at(i).v; {
	case w == nil:
		g.set(i, slot{k: g.slotKey(se.key), v: se})
		g.live++
	case se.priority > w.priority:
		g.shadowed = append(g.shadowed, w)
		g.set(i, slot{k: g.at(i).k, v: se})
	default:
		g.shadowed = append(g.shadowed, se)
	}
}

// locate finds the first-installed entry whose match equals match: its
// slot, and its index in shadowed or -1 when it is the slot's winner. Equal
// matches share masks and key: every candidate is here, under this key.
func (g *maskGroup) locate(key []uint64, match []p4ir.MatchValue) (at uint64, shadow int, se *storedEntry) {
	at, shadow = g.find(key), -1
	if w := g.at(at).v; w != nil && slices.Equal(w.match, match) {
		se = w
	}
	for i, s := range g.shadowed {
		if slices.Equal(s.match, match) && (se == nil || s.seq < se.seq) {
			shadow, se = i, s
		}
	}
	return at, shadow, se
}

// drop removes the entry locate found. Removing a winner promotes the
// shadowed entry a rebuild would have chosen, or frees the slot and
// shifts the rest of its probe run back so that no lookup meets a hole.
func (g *maskGroup) drop(at uint64, shadow int) {
	if shadow < 0 {
		w := g.at(at)
		var heir *storedEntry
		for i, s := range g.shadowed {
			if slices.Equal(s.key, w.v.key) && (heir == nil || s.priority > heir.priority ||
				s.priority == heir.priority && s.seq < heir.seq) {
				shadow, heir = i, s
			}
		}
		if heir != nil {
			g.set(at, slot{k: w.k, v: heir})
		}
	}
	if shadow >= 0 {
		g.shadowed = slices.Delete(g.shadowed, shadow, shadow+1)
		return
	}
	for j := (at + 1) & g.mask; g.at(j).v != nil; j = (j + 1) & g.mask {
		// The entry at j may move to the hole unless its home slot lies
		// cyclically in (hole, j].
		if home := g.home(g.at(j).k); (j-home)&g.mask >= (j-at)&g.mask {
			g.set(at, *g.at(j))
			at = j
		}
	}
	g.set(at, slot{})
	g.live--
}

// refreshRank recomputes the probe rank after the first-installed entry
// left the group.
func (g *maskGroup) refreshRank() {
	var first *storedEntry
	see := func(se *storedEntry) {
		if se != nil && (first == nil || se.seq < first.seq) {
			first = se
		}
	}
	for _, page := range g.pages {
		for _, s := range page {
			see(s.v)
		}
	}
	for _, se := range g.shadowed {
		see(se)
	}
	g.prefixBits, g.firstSeq = first.prefixBits, first.seq
}

// runtimeTable is the executable form of a p4ir.Table: immutable key and
// action metadata plus the match store. Entry operations never write to a
// published one: they fork the header, copy the one group they touch, and
// the control plane publishes the fork (see NIC.mutateTable), so packet
// readers stay lock-free and see a table either before or after an
// operation. What a packet reads comes first in the header.
type runtimeTable struct {
	// groups in probe order. Exact tables have at most one (every entry
	// carries the full mask).
	groups []*maskGroup
	one    [1]*maskGroup  // backs a fork's groups when there is but one
	kind   p4ir.MatchKind // widest
	// fixedM optionally overrides the probe charge: the kernel's PinnedM
	// (emulated-NIC models fix LPM/ternary cost).
	fixedM int
	// fids are the compiled key-field IDs and kmasks their width masks:
	// key gathering reads packets by ID and masks with one AND.
	fids       []packet.FieldID
	kmasks     []uint64
	defaultAct *compiledAction // executes on miss
	// acts are the pre-compiled actions, parallel to tbl.Actions.
	acts      []*compiledAction
	actByName map[string]*compiledAction
	tbl       *p4ir.Table
	// nextSeq numbers installs: Table.Entries is always in seq order.
	nextSeq uint64
	// cow marks a fork of a published table: its groups are shared with
	// readers, so own copies the one a mutator is about to write.
	cow bool
}

// buildTable compiles a table's keys and actions — actions into
// argument-resolved primitive lists, so the per-packet path never parses
// operand strings — around an empty match store, then inserts the entries
// one by one: New, Swap and ReplaceEntries install as InsertEntry does.
func buildTable(t *p4ir.Table, entries []p4ir.Entry, fixedM int) (*runtimeTable, error) {
	rt := &runtimeTable{
		tbl:       t,
		kind:      t.WidestMatchKind(),
		fixedM:    fixedM,
		acts:      make([]*compiledAction, len(t.Actions)),
		actByName: make(map[string]*compiledAction, len(t.Actions)),
	}
	for _, k := range t.Keys {
		rt.fids = append(rt.fids, packet.FieldIDFor(k.Field))
		rt.kmasks = append(rt.kmasks, k.FullMask())
	}
	for i, a := range t.Actions {
		rt.acts[i] = compileAction(a, i)
		rt.actByName[a.Name] = rt.acts[i]
	}
	if t.DefaultAction != "" {
		rt.defaultAct = rt.actByName[t.DefaultAction]
	} else if len(rt.acts) > 0 {
		rt.defaultAct = rt.acts[len(rt.acts)-1]
	}
	for i := range entries {
		if _, err := rt.insert(&entries[i]); err != nil {
			return nil, fmt.Errorf("table %q entry %d: %w", t.Name, i, err)
		}
	}
	return rt, nil
}

// fork returns a header the mutators may write, which copies the one group
// an operation touches when it touches it and shares the rest with rt.
func (rt *runtimeTable) fork() *runtimeTable {
	next := *rt
	next.groups = append(next.one[:0], rt.groups...)
	next.cow = true
	return &next
}

// own returns group i ready to be written, with room for n more keys.
func (rt *runtimeTable) own(i, n int) *maskGroup {
	g := rt.groups[i]
	if rt.cow {
		c := *g
		c.shared, c.pages, c.shadowed = g.pages, slices.Clone(g.pages), slices.Clone(g.shadowed)
		g, rt.groups[i] = &c, &c
	}
	g.reserve(n)
	return g
}

// keyOf appends the per-key masks of a match to masks and its values under
// them to key, and sums its probe rank: exact keys count their width, LPM
// keys their prefix length.
func (rt *runtimeTable) keyOf(match []p4ir.MatchValue, masks, key []uint64) (_, _ []uint64, prefixBits int) {
	for i, k := range rt.tbl.Keys {
		var m uint64
		switch k.Kind {
		case p4ir.MatchExact:
			m = rt.kmasks[i]
			prefixBits += k.BitWidth()
		case p4ir.MatchLPM:
			m = k.PrefixMask(match[i].PrefixLen)
			prefixBits += match[i].PrefixLen
		case p4ir.MatchTernary, p4ir.MatchRange:
			m = match[i].Mask
		}
		masks, key = append(masks, m), append(key, match[i].Value&m)
	}
	return masks, key, prefixBits
}

func (rt *runtimeTable) groupIndex(masks []uint64) int {
	return slices.IndexFunc(rt.groups, func(g *maskGroup) bool { return slices.Equal(g.masks, masks) })
}

// sortGroups restores probe order after a group appeared or changed rank.
func (rt *runtimeTable) sortGroups() {
	slices.SortFunc(rt.groups, func(a, b *maskGroup) int {
		return cmp.Or(cmp.Compare(b.prefixBits, a.prefixBits), cmp.Compare(a.firstSeq, b.firstSeq))
	})
}

// insert validates, compiles and installs one entry — and nothing else:
// no entry already in the table is hashed, compiled or copied for it. The
// stored entry keeps e.Match.
func (rt *runtimeTable) insert(e *p4ir.Entry) (*storedEntry, error) {
	if len(e.Match) != len(rt.tbl.Keys) {
		return nil, fmt.Errorf("entry arity %d != %d keys", len(e.Match), len(rt.tbl.Keys))
	}
	cact := rt.actByName[e.Action]
	if cact == nil {
		return nil, fmt.Errorf("unknown action %q", e.Action)
	}
	var buf [8]uint64
	se := &storedEntry{cact: cact, cargs: compileArgs(e.Args), priority: e.Priority, match: e.Match, seq: rt.nextSeq}
	var masks []uint64
	masks, se.key, se.prefixBits = rt.keyOf(e.Match, buf[:0], se.kbuf[:0])
	rt.nextSeq++
	gi := rt.groupIndex(masks)
	fresh := gi < 0
	if fresh {
		g := &maskGroup{masks: slices.Clone(masks), prefixBits: se.prefixBits, firstSeq: se.seq}
		if len(masks) > 0 {
			g.mask0 = masks[0]
		}
		gi, rt.groups = len(rt.groups), append(rt.groups, g)
	}
	rt.own(gi, 1).add(se)
	if fresh {
		rt.sortGroups()
	}
	return se, nil
}

func compileArgs(args []string) []operand {
	cargs := make([]operand, len(args))
	for i, arg := range args {
		cargs[i] = compileOperand(arg)
	}
	return cargs
}

// edit locates the first-installed entry whose match equals match, the one
// DeleteEntry and ModifyEntry name, and hands it to apply, its group owned.
func (rt *runtimeTable) edit(match []p4ir.MatchValue, apply func(gi int, g *maskGroup, at uint64, shadow int, se *storedEntry)) error {
	if len(match) == len(rt.tbl.Keys) {
		var mbuf, kbuf [8]uint64
		masks, key, _ := rt.keyOf(match, mbuf[:0], kbuf[:0])
		if gi := rt.groupIndex(masks); gi >= 0 {
			if at, shadow, se := rt.groups[gi].locate(key, match); se != nil {
				apply(gi, rt.own(gi, 0), at, shadow, se)
				return nil
			}
		}
	}
	return fmt.Errorf("no entry matching %v in %q", match, rt.tbl.Name)
}

// remove uninstalls the first-installed entry whose match equals match and
// leaves the store as a rebuild without it would: a shadowed entry may
// resurface, an emptied group goes, a group that lost its first-installed
// entry may change rank (not in exact tables: they never have a second).
func (rt *runtimeTable) remove(match []p4ir.MatchValue) error {
	return rt.edit(match, func(gi int, g *maskGroup, at uint64, shadow int, se *storedEntry) {
		g.drop(at, shadow)
		switch {
		case g.live == 0:
			rt.groups = slices.Delete(rt.groups, gi, gi+1)
		case se.seq == g.firstSeq && rt.kind != p4ir.MatchExact:
			g.refreshRank()
			rt.sortGroups()
		}
	})
}

// modify gives the first-installed entry whose match equals match a new
// action and action data, in a fresh storedEntry at the same place.
func (rt *runtimeTable) modify(match []p4ir.MatchValue, action string, args []string) error {
	cact := rt.actByName[action]
	if cact == nil {
		return fmt.Errorf("unknown action %q", action)
	}
	return rt.edit(match, func(_ int, g *maskGroup, at uint64, shadow int, se *storedEntry) {
		next := *se
		next.key = append(next.kbuf[:0], se.key...) // its own copy: the old entry can go
		next.cact, next.cargs = cact, compileArgs(args)
		if shadow >= 0 {
			g.shadowed[shadow] = &next
		} else {
			g.set(at, slot{k: g.at(at).k, v: &next})
		}
	})
}

// lookup matches the width-masked field values against the table, group
// by group in probe order. Hardware probes every bank: the charge is
// numGroups whatever is found where. This loop takes what probes inline —
// one-word keys, one-page groups — and holds no call, which keeps it in
// registers; the first group that needs more takes the rest of the table
// to lookupFrom.
func (rt *runtimeTable) lookup(values []uint64) *storedEntry {
	var best *storedEntry
	for gi, g := range rt.groups {
		if len(values) != 1 || len(g.flat) == 0 {
			return rt.lookupFrom(gi, best, values)
		}
		var done bool
		if best, done = rt.take(best, g.probe1(values[0])); done {
			break
		}
	}
	return best
}

func (rt *runtimeTable) lookupFrom(gi int, best *storedEntry, values []uint64) *storedEntry {
	for _, g := range rt.groups[gi:] {
		var se *storedEntry
		if len(values) == 1 {
			se = g.probePaged(values[0])
		} else {
			se = g.at(g.find(values)).v
		}
		var done bool
		if best, done = rt.take(best, se); done {
			break
		}
	}
	return best
}

// take is the match-kind ladder: exact and LPM tables take the first hit
// and stop; ternary and range tables take the best priority over all
// groups, the earlier group on a tie.
func (rt *runtimeTable) take(best, se *storedEntry) (_ *storedEntry, done bool) {
	ternary := rt.kind == p4ir.MatchTernary
	if se == nil || ternary && best != nil && se.priority <= best.priority {
		return best, false
	}
	return se, !ternary
}

// numGroups reports the live m of the table (distinct masks/prefixes): the
// hash-table accesses a lookup is charged, or fixedM when the model pins
// them.
func (rt *runtimeTable) numGroups() int {
	if rt.fixedM > 0 {
		return rt.fixedM
	}
	return max(len(rt.groups), 1)
}
