package absint

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"pipeleon/internal/p4ir"
)

// Shadow reports one table entry that can never be selected.
type Shadow struct {
	// Entry is the index of the dead entry; By the index of the entry that
	// kills it (for Covered shadows, a representative of the killing mask
	// group).
	Entry int
	By    int
	// Duplicate marks build-time dedup losers: the entry has the same
	// masks and masked key as By, so the lookup structure keeps only one
	// of them (higher priority wins, first-installed wins ties).
	Duplicate bool
	// Covered marks entries beaten by a fully-enumerated mask group:
	// every packet matches some group member, and every member wins the
	// priority probe against the entry. Neither Duplicate nor Covered
	// means a pairwise ternary strict-priority domination: every packet
	// the entry matches also matches By at strictly higher priority.
	Covered bool
}

func (s Shadow) String() string {
	switch {
	case s.Duplicate:
		return fmt.Sprintf("entry %d duplicates the masked key of entry %d and loses the build-time dedup", s.Entry, s.By)
	case s.Covered:
		return fmt.Sprintf("entry %d can never win: the fully-enumerated mask group of entry %d claims every packet it could match first", s.Entry, s.By)
	}
	return fmt.Sprintf("entry %d is strictly dominated by entry %d (superset match at higher priority)", s.Entry, s.By)
}

// TableFacts bundles the static lookup facts of one table.
type TableFacts struct {
	// Shadows lists entries that can never be selected.
	Shadows []Shadow
	// MustHit reports that no packet can miss the table: some mask group
	// enumerates every masked value of its mask, so every key matches one
	// of its entries.
	MustHit bool
}

// AnalyzeTable derives the static lookup facts of one table, mirroring
// the emulator's build-time dedup (within a mask group, one winner per
// masked key), its highest-priority-wins ternary probe (earlier-installed
// mask groups win priority ties), and mask-group coverage. Priority ties
// between entries are otherwise order-dependent and never reported. t is a
// table of a well-formed program.
func AnalyzeTable(t *p4ir.Table) TableFacts {
	// Entries group by their per-key masks and, inside a group, by their
	// masked values: both are word tuples, indexed as such (wordIndex).
	type info struct {
		masks []uint64
		vals  []uint64
		group int // mask group, numbered in first-seen order
	}
	infos := make([]info, len(t.Entries))
	var maskGroups wordIndex
	words := make([]uint64, 2*len(t.Keys)*len(t.Entries))
	for ei := range t.Entries {
		e := &t.Entries[ei]
		n := len(t.Keys)
		in := info{masks: words[:n:n], vals: words[n : 2*n : 2*n]}
		words = words[2*n:]
		for i, k := range t.Keys {
			m := k.MatchMask(e.Match[i])
			in.masks[i] = m
			in.vals[i] = e.Match[i].Value & m
		}
		in.group, _ = maskGroups.id(in.masks)
		infos[ei] = in
	}

	var out []Shadow

	// Build-time dedup: within one mask group, entries sharing a masked
	// key collapse to a single winner (strictly higher priority replaces;
	// ties keep the first installed).
	type dedup struct {
		vals   wordIndex
		winner []int // per distinct masked key
	}
	dedups := make([]dedup, maskGroups.len())
	losers := make([]bool, len(t.Entries))
	for ei := range t.Entries {
		in := infos[ei]
		d := &dedups[in.group]
		slot, fresh := d.vals.id(in.vals)
		if fresh {
			d.winner = append(d.winner, ei)
			continue
		}
		if w := d.winner[slot]; t.Entries[ei].Priority > t.Entries[w].Priority {
			losers[w] = true
			out = append(out, Shadow{Entry: w, By: ei, Duplicate: true})
			d.winner[slot] = ei
		} else {
			losers[ei] = true
			out = append(out, Shadow{Entry: ei, By: w, Duplicate: true})
		}
	}

	// Cross-group strict-priority domination only exists on the
	// ternary/range probe path (exact tables have a single group; LPM
	// probes longest-prefix-first where strict prefix nesting cannot
	// produce a superset match set).
	kind := t.WidestMatchKind()
	ternary := kind == p4ir.MatchTernary || kind == p4ir.MatchRange
	shadowed := make([]bool, len(t.Entries))
	copy(shadowed, losers)
	if ternary {
		// b dominates a iff match(a) ⊆ match(b): per key, b's mask is a
		// subset of a's and the masked values agree on it. In a mask group
		// whose masks are a subset of a's, only entries with one masked key
		// — a's values under those masks — can, and of those only the dedup
		// winner is installed: one lookup per group finds it. By is the
		// first dominating entry.
		key := make([]uint64, len(t.Keys))
		for a := range t.Entries {
			ia := infos[a]
			if losers[a] {
				continue
			}
			by := -1
			for g := range maskGroups.len() {
				sub := true
				for i, m := range maskGroups.tuple(g) {
					if m&^ia.masks[i] != 0 {
						sub = false
						break
					}
					key[i] = ia.vals[i] & m
				}
				if !sub {
					continue
				}
				if slot, ok := dedups[g].vals.find(key); ok {
					if b := dedups[g].winner[slot]; b != a && t.Entries[b].Priority > t.Entries[a].Priority && (by < 0 || b < by) {
						by = b
					}
				}
			}
			if by >= 0 {
				out = append(out, Shadow{Entry: a, By: by})
				shadowed[a] = true
			}
		}
	}

	// Mask-group coverage: a group whose entries enumerate every masked
	// value of its mask (within the key widths) matches every packet, so
	// the table cannot miss. On the ternary probe path such a group also
	// kills any entry that every member beats: strictly lower priority,
	// or equal priority in a later-installed mask group (the probe scans
	// groups in first-seen order and keeps the first best-priority hit).
	type group struct {
		vals    wordIndex // distinct in-width masked values, first-seen order
		masks   []uint64
		bits    int
		prefix  int // emulator probe sort key (exact widths + LPM prefixes)
		order   int // probe rank: prefix desc, first-seen stable
		minPrio int
		sample  int
		some    bool
	}
	covGroups := make([]*group, maskGroups.len())
	var groupSeq []*group
	groupOf := make([]*group, len(t.Entries))
	for ei := range t.Entries {
		in := infos[ei]
		g := covGroups[in.group]
		if g == nil {
			bits, prefix := 0, 0
			for i, k := range t.Keys {
				bits += popcount(in.masks[i] & widthMask(k.BitWidth()))
				switch k.Kind {
				case p4ir.MatchExact:
					prefix += k.BitWidth()
				case p4ir.MatchLPM:
					prefix += t.Entries[ei].Match[i].PrefixLen
				}
			}
			g = &group{masks: in.masks, bits: bits, prefix: prefix}
			covGroups[in.group] = g
			groupSeq = append(groupSeq, g)
		}
		groupOf[ei] = g
		// A masked value needing key bits beyond the key width never
		// matches a (width-truncated) key; it contributes no coverage.
		inWidth := true
		for i, k := range t.Keys {
			if in.vals[i]&^widthMask(k.BitWidth()) != 0 {
				inWidth = false
				break
			}
		}
		if !inWidth {
			continue
		}
		p := t.Entries[ei].Priority
		if !g.some || p < g.minPrio {
			g.minPrio, g.sample = p, ei
		}
		g.some = true
		g.vals.id(in.vals)
	}
	// Probe rank mirrors buildTable: groups stable-sorted by prefix bits
	// descending over first-seen order.
	sort.SliceStable(groupSeq, func(i, j int) bool { return groupSeq[i].prefix > groupSeq[j].prefix })
	for i, g := range groupSeq {
		g.order = i
	}
	mustHit := false
	for _, g := range groupSeq {
		// bits is capped far above any enumerable entry count; the cap only
		// guards the 1<<bits shift.
		if !g.some || g.bits > 24 || g.vals.len() != 1<<uint(g.bits) {
			continue
		}
		mustHit = true
		if !ternary {
			continue
		}
		for ei := range t.Entries {
			if shadowed[ei] || groupOf[ei] == g {
				continue
			}
			p := t.Entries[ei].Priority
			if p < g.minPrio || (p == g.minPrio && groupOf[ei].order > g.order) {
				out = append(out, Shadow{Entry: ei, By: g.sample, Covered: true})
				shadowed[ei] = true
			}
		}
	}

	// Conditional coverage: a group whose tuples are constant on every key
	// but one, and enumerate that key's whole masked space, acts like a
	// single virtual entry that is wildcard on the varying key — any
	// packet it admits on the constant keys is guaranteed to match some
	// member. Such a virtual entry dominates exactly like a real one:
	// strictly higher minimum priority, or equal priority in an
	// earlier-probed group. This is what kills the (entry, member-miss)
	// combos of merged tables whose second member cannot miss: the
	// (entry, e2_j) combos share one mask group, vary only in the second
	// member's key, and enumerate it.
	if ternary {
		type virtual struct {
			masks, vals []uint64
			prio        int
			order       int
			sample      int
		}
		var virts []virtual
		for _, g := range groupSeq {
			tuples := g.vals.len()
			if !g.some || tuples < 2 {
				continue
			}
			for j := range t.Keys {
				bitsJ := popcount(g.masks[j] & widthMask(t.Keys[j].BitWidth()))
				if bitsJ == 0 || bitsJ > 24 || tuples < 1<<uint(bitsJ) {
					continue
				}
				// Bucket the tuples by their values on every key but j; a
				// bucket that enumerates key j's whole masked space yields
				// one virtual entry (that bucket's context, wildcard on j).
				type bucket struct {
					jvals map[uint64]bool
					rep   []uint64
				}
				var contexts wordIndex
				var buckets []bucket
				ctx := make([]uint64, 0, len(t.Keys))
				for k := range tuples {
					tu := g.vals.tuple(k)
					ctx = append(append(ctx[:0], tu[:j]...), tu[j+1:]...)
					bi, fresh := contexts.id(ctx)
					if fresh {
						buckets = append(buckets, bucket{jvals: map[uint64]bool{}, rep: tu})
					}
					buckets[bi].jvals[tu[j]] = true
				}
				for _, b := range buckets {
					if len(b.jvals) != 1<<uint(bitsJ) {
						continue
					}
					vm := make([]uint64, len(g.masks))
					vv := make([]uint64, len(g.masks))
					copy(vm, g.masks)
					copy(vv, b.rep)
					vm[j], vv[j] = 0, 0
					virts = append(virts, virtual{masks: vm, vals: vv, prio: g.minPrio, order: g.order, sample: g.sample})
				}
			}
		}
		for ei := range t.Entries {
			in := infos[ei]
			if shadowed[ei] {
				continue
			}
			p := t.Entries[ei].Priority
			for _, v := range virts {
				if !(v.prio > p || (v.prio == p && v.order < groupOf[ei].order)) {
					continue
				}
				dominates := true
				for i := range in.masks {
					if v.masks[i]&^in.masks[i] != 0 || (in.vals[i]^v.vals[i])&v.masks[i] != 0 {
						dominates = false
						break
					}
				}
				if dominates {
					out = append(out, Shadow{Entry: ei, By: v.sample, Covered: true})
					shadowed[ei] = true
					break
				}
			}
		}
	}
	return TableFacts{Shadows: out, MustHit: mustHit}
}

// wordIndex numbers distinct word tuples, all of one width, in first-seen
// order. Tuples are found by a 64-bit fold of their words (the emulator's
// hashWords; absint may not import the emulator) and compared word for
// word on a match, so no tuple is ever formatted into a string to serve as
// a map key.
type wordIndex struct {
	head  map[uint64]int32 // fold -> 1 + the newest tuple with that fold
	chain []int32          // id -> 1 + the next older tuple with its fold
	words []uint64         // tuple id is words[id*width:(id+1)*width]
	width int
}

func (x *wordIndex) len() int { return len(x.chain) }

func (x *wordIndex) tuple(id int) []uint64 {
	return x.words[id*x.width : (id+1)*x.width : (id+1)*x.width]
}

// id returns the tuple's number, assigning the next one (and keeping a
// copy of the words) when it is new.
func (x *wordIndex) id(words []uint64) (id int, fresh bool) {
	h := fold(words)
	if id, ok := x.lookup(h, words); ok {
		return id, false
	}
	if x.head == nil {
		x.head = map[uint64]int32{}
		x.width = len(words)
	}
	x.chain = append(x.chain, x.head[h])
	x.words = append(x.words, words...)
	x.head[h] = int32(len(x.chain))
	return len(x.chain) - 1, true
}

// find returns the tuple's number, if it has one.
func (x *wordIndex) find(words []uint64) (id int, ok bool) {
	return x.lookup(fold(words), words)
}

func (x *wordIndex) lookup(h uint64, words []uint64) (int, bool) {
	for i := x.head[h]; i != 0; i = x.chain[i-1] {
		if slices.Equal(x.tuple(int(i-1)), words) {
			return int(i - 1), true
		}
	}
	return 0, false
}

func fold(words []uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, w := range words {
		h = (h ^ w) * 0x9E3779B97F4A7C15
		h ^= h >> 32
	}
	return h
}

func widthMask(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(w) - 1
}

func popcount(v uint64) int {
	return bits.OnesCount64(v)
}
