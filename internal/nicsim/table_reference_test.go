// The match store as it stood before the incremental word-keyed store
// replaced it, verbatim but for the ref* names: string-keyed mask groups
// rebuilt from Table.Entries on every change. It is the oracle of
// table_model_test.go — dedup, priority and group-order semantics are
// whatever a rebuild through this file says they are.
package nicsim

import (
	"encoding/binary"
	"fmt"
	"sort"

	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
)

// refMaskSig identifies one hash-table group: the tuple of masks applied to
// the key fields.
type refMaskSig string

func refSigOf(masks []uint64) refMaskSig {
	b := make([]byte, 8*len(masks))
	for i, m := range masks {
		binary.BigEndian.PutUint64(b[i*8:], m)
	}
	return refMaskSig(b)
}

// refFlatMaxEntries bounds the linear-scan form: groups at or below this
// size are probed by comparing masked key words directly, skipping the
// hash-and-map machinery that dominates small-table lookup cost. Within a
// group, masks are identical, so at most one entry can match a given key
// — scan order cannot change the result, only find it cheaper.
const refFlatMaxEntries = 16

// refGroup is one hash table of a multi-hash-table match structure.
type refGroup struct {
	masks []uint64
	// prio orders groups: for LPM, total prefix bits (longer wins); for
	// ternary the max entry priority is tracked per entry instead.
	prefixBits int
	entries    map[string]*refEntry
	// flat/flatKeys is the linear-scan form built for small groups:
	// entry j's masked key words live at flatKeys[j*nk : (j+1)*nk]. nil
	// for groups above refFlatMaxEntries (the map stays authoritative).
	flat     []*refEntry
	flatKeys []uint64
	// m64 is the probe form for large single-field groups: keyed by the
	// masked key word directly, it skips hashing key bytes through the
	// string map.
	m64 *refU64Map
}

// refU64Map is a minimal open-addressing hash table keyed by masked key
// words — the emulator's stand-in for the NIC's SRAM exact-match bank.
// Fibonacci hashing, linear probing, load factor <= 0.5, and a flat
// parallel-array layout keep a hit to ~two cache lines with no per-probe
// function call; key 0 is stored out of band because 0 marks empty slots.
type refU64Map struct {
	mask  uint64
	shift uint
	slots []refU64Slot
	zero  *refEntry
}

// refU64Slot interleaves key and value so a probe touches one cache line,
// not one line in a key array plus one in a value array.
type refU64Slot struct {
	k uint64
	v *refEntry
}

func newRefU64Map(n int) *refU64Map {
	size := 4
	for size < 2*n {
		size <<= 1
	}
	shift := uint(64)
	for s := size; s > 1; s >>= 1 {
		shift--
	}
	return &refU64Map{
		mask:  uint64(size - 1),
		shift: shift,
		slots: make([]refU64Slot, size),
	}
}

func (m *refU64Map) put(k uint64, se *refEntry) {
	if k == 0 {
		m.zero = se
		return
	}
	i := (k * fib64) >> m.shift
	for m.slots[i&m.mask].k != 0 && m.slots[i&m.mask].k != k {
		i++
	}
	m.slots[i&m.mask] = refU64Slot{k: k, v: se}
}

func (m *refU64Map) get(k uint64) *refEntry {
	if k == 0 {
		return m.zero
	}
	i := (k * fib64) >> m.shift
	for {
		s := &m.slots[i&m.mask]
		if s.k == k {
			return s.v
		}
		if s.k == 0 {
			return nil
		}
		i++
	}
}

// freeze builds (or clears) the group's probe acceleration structures
// after all entries are inserted: the linear-scan form for small groups,
// and the uint64-keyed map for large single-field groups. Entries are
// ordered by masked key bytes so the flat layout is deterministic
// regardless of insertion order. The string-keyed entries map stays
// authoritative either way; the accelerated forms are pure projections of
// it, so probing through them cannot change which entry matches.
func (g *refGroup) freeze() {
	g.flat, g.flatKeys, g.m64 = nil, nil, nil
	if len(g.entries) == 0 {
		return
	}
	// Single-field groups above a handful of entries probe fastest through
	// the open-addressed table: one multiply-shift beats even an 8-entry
	// scan, and the scan's worst case grows with the group.
	if len(g.masks) == 1 && len(g.entries) > 4 {
		g.m64 = newRefU64Map(len(g.entries))
		for _, se := range g.entries {
			g.m64.put(se.entry.Match[0].Value&g.masks[0], se)
		}
		return
	}
	if len(g.entries) > refFlatMaxEntries {
		return
	}
	keys := make([]string, 0, len(g.entries))
	for k := range g.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	nk := len(g.masks)
	g.flat = make([]*refEntry, 0, len(keys))
	g.flatKeys = make([]uint64, 0, len(keys)*nk)
	for _, k := range keys {
		se := g.entries[k]
		g.flat = append(g.flat, se)
		for i := 0; i < nk; i++ {
			g.flatKeys = append(g.flatKeys, se.entry.Match[i].Value&g.masks[i])
		}
	}
}

// scan probes the linear-scan form with unmasked key values. Only valid
// when flat is non-nil.
func (g *refGroup) scan(values []uint64) *refEntry {
	nk := len(g.masks)
	if nk == 0 {
		if len(g.flat) > 0 {
			return g.flat[0]
		}
		return nil
	}
	masks, keys := g.masks, g.flatKeys
	if nk == 1 {
		v := values[0] & masks[0]
		for j, k := range keys {
			if k == v {
				return g.flat[j]
			}
		}
		return nil
	}
outer:
	for j := range g.flat {
		base := j * nk
		for i := 0; i < nk; i++ {
			if values[i]&masks[i] != keys[base+i] {
				continue outer
			}
		}
		return g.flat[j]
	}
	return nil
}

type refEntry struct {
	entry    p4ir.Entry
	action   *p4ir.Action
	cact     *compiledAction
	cargs    []operand // entry action-data, pre-parsed
	priority int
}

// refTable is the executable form of a p4ir.Table.
type refTable struct {
	tbl    *p4ir.Table
	kind   p4ir.MatchKind // widest
	fields []string
	// fids are the compiled key-field IDs, parallel to fields; key
	// gathering reads packets by ID instead of by name.
	fids   []packet.FieldID
	widths []int
	// kmasks are the precomputed width masks, parallel to fids, so key
	// gathering masks with one AND instead of a branch and shift.
	kmasks []uint64
	// groups, probe order: exact = 1 group; LPM = descending prefix bits;
	// ternary = all groups probed, best priority wins.
	groups []*refGroup
	// acts are the pre-compiled actions, parallel to tbl.Actions.
	acts []*compiledAction
	// defaultAct executes on miss.
	defaultAct *compiledAction
	// fixedM optionally overrides the probe charge (emulated-NIC models
	// that fix LPM/ternary cost).
	fixedM int
	// m0/m0mask is the fully-inlined probe form of the hottest table
	// shape — single-field exact match with an open-addressed group — so
	// the execution loop skips both lookup dispatch and group selection.
	// Exact tables always have exactly one group (all entries share the
	// full mask) and charge one probe.
	m0     *refU64Map
	m0mask uint64
}

// refBuildTable compiles a table's entries into its lookup structure and its
// actions into argument-resolved primitive lists, so the per-packet path
// never parses operand strings.
func refBuildTable(t *p4ir.Table, fixedLPM, fixedTernary int) (*refTable, error) {
	rt := &refTable{
		tbl:  t,
		kind: t.WidestMatchKind(),
	}
	for _, k := range t.Keys {
		rt.fields = append(rt.fields, k.Field)
		rt.fids = append(rt.fids, packet.FieldIDFor(k.Field))
		rt.widths = append(rt.widths, k.BitWidth())
		km := ^uint64(0)
		if w := k.BitWidth(); w < 64 {
			km = (uint64(1) << w) - 1
		}
		rt.kmasks = append(rt.kmasks, km)
	}
	rt.acts = make([]*compiledAction, len(t.Actions))
	byName := make(map[string]*compiledAction, len(t.Actions))
	for i, a := range t.Actions {
		rt.acts[i] = compileAction(a, i)
		byName[a.Name] = rt.acts[i]
	}
	if t.DefaultAction != "" {
		rt.defaultAct = byName[t.DefaultAction]
	} else if len(rt.acts) > 0 {
		rt.defaultAct = rt.acts[len(rt.acts)-1]
	}
	switch rt.kind {
	case p4ir.MatchLPM:
		rt.fixedM = fixedLPM
	case p4ir.MatchTernary, p4ir.MatchRange:
		rt.fixedM = fixedTernary
	}
	bysig := map[refMaskSig]*refGroup{}
	for i := range t.Entries {
		e := &t.Entries[i]
		masks, prefixBits, err := refEntryMasks(t, e)
		if err != nil {
			return nil, fmt.Errorf("table %q entry %d: %w", t.Name, i, err)
		}
		sig := refSigOf(masks)
		g := bysig[sig]
		if g == nil {
			g = &refGroup{masks: masks, prefixBits: prefixBits, entries: map[string]*refEntry{}}
			bysig[sig] = g
			rt.groups = append(rt.groups, g)
		}
		key := refMaskedKey(refEntryValues(e), masks)
		cact := byName[e.Action]
		if cact == nil {
			return nil, fmt.Errorf("table %q entry %d: unknown action %q", t.Name, i, e.Action)
		}
		prev, exists := g.entries[key]
		if !exists || e.Priority > prev.priority {
			g.entries[key] = &refEntry{entry: *e, action: cact.act, cact: cact, cargs: compileArgs(e.Args), priority: e.Priority}
		}
	}
	// Probe order: LPM longest prefix first; others stable by signature.
	sort.SliceStable(rt.groups, func(i, j int) bool {
		return rt.groups[i].prefixBits > rt.groups[j].prefixBits
	})
	for _, g := range rt.groups {
		g.freeze()
	}
	if rt.kind == p4ir.MatchExact && len(rt.fids) == 1 && rt.fixedM == 0 && len(rt.groups) == 1 {
		if g := rt.groups[0]; g.m64 != nil {
			rt.m0 = g.m64
			rt.m0mask = g.masks[0]
		}
	}
	return rt, nil
}

// refEntryMasks derives the per-key masks of an entry based on key kinds.
func refEntryMasks(t *p4ir.Table, e *p4ir.Entry) (masks []uint64, prefixBits int, err error) {
	if len(e.Match) != len(t.Keys) {
		return nil, 0, fmt.Errorf("%d match values for %d keys", len(e.Match), len(t.Keys))
	}
	masks = make([]uint64, len(t.Keys))
	for i, k := range t.Keys {
		switch k.Kind {
		case p4ir.MatchExact:
			masks[i] = k.FullMask()
			prefixBits += k.BitWidth()
		case p4ir.MatchLPM:
			masks[i] = k.PrefixMask(e.Match[i].PrefixLen)
			prefixBits += e.Match[i].PrefixLen
		case p4ir.MatchTernary, p4ir.MatchRange:
			masks[i] = e.Match[i].Mask
		}
	}
	return masks, prefixBits, nil
}

func refEntryValues(e *p4ir.Entry) []uint64 {
	vals := make([]uint64, len(e.Match))
	for i, m := range e.Match {
		vals[i] = m.Value
	}
	return vals
}

// refMaskedKey builds the hash key from masked field values.
func refMaskedKey(values, masks []uint64) string {
	b := make([]byte, 8*len(values))
	for i := range values {
		binary.BigEndian.PutUint64(b[i*8:], values[i]&masks[i])
	}
	return string(b)
}

// refLookupResult is the outcome of one key match.
type refLookupResult struct {
	entry *refEntry
	// probes is the number of hash-table accesses performed — the m the
	// target charges (or fixedM when the model pins it).
	probes int
	hit    bool
}

// lookup matches the field values against the table.
func (rt *refTable) lookup(values []uint64) refLookupResult {
	return rt.lookupBuf(values, make([]byte, 8*len(values)))
}

// lookupBuf is lookup with a caller-provided scratch buffer (cap >=
// 8*len(values)); the hot path reuses one buffer per processing context
// so probing never allocates: refMaskedKeyInto + a direct map index on
// string(buf) compile to a zero-copy map probe.
func (rt *refTable) lookupBuf(values []uint64, buf []byte) refLookupResult {
	res := refLookupResult{}
	switch rt.kind {
	case p4ir.MatchExact:
		res.probes = 1
		if len(rt.groups) > 0 {
			g := rt.groups[0]
			if se := g.probe(values, buf); se != nil {
				res.entry, res.hit = se, true
			}
		}
	case p4ir.MatchLPM:
		// Probe longest-prefix groups first; stop at the first hit
		// conceptually, but hardware probes every bank — charge them all
		// (m = number of distinct prefix lengths).
		res.probes = len(rt.groups)
		if res.probes == 0 {
			res.probes = 1
		}
		for _, g := range rt.groups {
			if se := g.probe(values, buf); se != nil {
				res.entry, res.hit = se, true
				break
			}
		}
	default: // ternary / range: probe all groups, best priority wins.
		res.probes = len(rt.groups)
		if res.probes == 0 {
			res.probes = 1
		}
		for _, g := range rt.groups {
			if se := g.probe(values, buf); se != nil {
				if res.entry == nil || se.priority > res.entry.priority {
					res.entry, res.hit = se, true
				}
			}
		}
	}
	if rt.fixedM > 0 {
		res.probes = rt.fixedM
	}
	return res
}

// lookup1 is lookupBuf specialized for single-field tables — the common
// case in practice — probing groups with the key word directly, so the
// hot path skips the gather loop, the values slice, and the scratch
// buffer entirely. Identical charging and matching to lookupBuf.
func (rt *refTable) lookup1(v uint64) refLookupResult {
	res := refLookupResult{}
	switch rt.kind {
	case p4ir.MatchExact:
		res.probes = 1
		if len(rt.groups) > 0 {
			if se := rt.groups[0].probe1(v); se != nil {
				res.entry, res.hit = se, true
			}
		}
	case p4ir.MatchLPM:
		res.probes = len(rt.groups)
		if res.probes == 0 {
			res.probes = 1
		}
		for _, g := range rt.groups {
			if se := g.probe1(v); se != nil {
				res.entry, res.hit = se, true
				break
			}
		}
	default:
		res.probes = len(rt.groups)
		if res.probes == 0 {
			res.probes = 1
		}
		for _, g := range rt.groups {
			if se := g.probe1(v); se != nil {
				if res.entry == nil || se.priority > res.entry.priority {
					res.entry, res.hit = se, true
				}
			}
		}
	}
	if rt.fixedM > 0 {
		res.probes = rt.fixedM
	}
	return res
}

// probe1 is probe for single-field groups (which always carry a flat or
// m64 form after freeze; the byte-key fallback covers hand-built groups).
func (g *refGroup) probe1(v uint64) *refEntry {
	m := v & g.masks[0]
	if g.m64 != nil {
		return g.m64.get(m)
	}
	if g.flat != nil {
		for j, k := range g.flatKeys {
			if k == m {
				return g.flat[j]
			}
		}
		return nil
	}
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], m)
	return g.entries[string(buf[:])]
}

// probe matches unmasked key values against the group: linear scan for
// small groups, hashed map probe otherwise. Identical results either way
// — within a group at most one entry can match.
func (g *refGroup) probe(values []uint64, buf []byte) *refEntry {
	if g.flat != nil {
		return g.scan(values)
	}
	if g.m64 != nil {
		return g.m64.get(values[0] & g.masks[0])
	}
	if se, ok := g.entries[string(refMaskedKeyInto(buf, values, g.masks))]; ok {
		return se
	}
	return nil
}

// refMaskedKeyInto writes the masked key bytes into buf and returns the
// filled prefix. buf must have capacity for 8*len(values) bytes.
func refMaskedKeyInto(buf []byte, values, masks []uint64) []byte {
	b := buf[:8*len(values)]
	for i := range values {
		binary.BigEndian.PutUint64(b[i*8:], values[i]&masks[i])
	}
	return b
}

// numGroups reports the live m of the table (distinct masks/prefixes).
func (rt *refTable) numGroups() int {
	if rt.fixedM > 0 {
		return rt.fixedM
	}
	if len(rt.groups) == 0 {
		return 1
	}
	return len(rt.groups)
}
