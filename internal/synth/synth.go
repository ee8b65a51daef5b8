// Package synth generates random-but-plausible P4 programs and runtime
// profiles, standing in for the Gauntlet-based program synthesizer the
// paper adapts (§5.2.2: "adapting a recent tool that can synthesize P4
// programs. Together with a runtime profile synthesizer, we generated
// programs in three categories") and driving the optimization-speed and
// top-k-effectiveness studies (§5.4).
package synth

import (
	"fmt"
	"math/bits"
	"slices"

	"pipeleon/internal/p4ir"
	"pipeleon/internal/stats"
)

// Category selects the workload flavour of a synthesized program+profile.
type Category int

const (
	// Mixed draws table kinds and rates uniformly.
	Mixed Category = iota
	// HeavyDrop programs contain ACL-style tables with high packet
	// dropping rates (reordering-friendly).
	HeavyDrop
	// SmallStatic programs are dominated by small exact tables with no
	// entry updates (merging-friendly).
	SmallStatic
	// HighLocality programs have complex (LPM/ternary) tables and traffic
	// concentrated on few flows (caching-friendly).
	HighLocality
)

var categoryNames = [...]string{"mixed", "heavy-drop", "small-static", "high-locality"}

func (c Category) String() string {
	if int(c) < len(categoryNames) {
		return categoryNames[c]
	}
	return fmt.Sprintf("Category(%d)", int(c))
}

// ProgramSpec parameterizes program synthesis.
type ProgramSpec struct {
	// Pipelets is the target pipelet count (PN in §5.4.2).
	Pipelets int
	// AvgLen is the target mean pipelet length (PL).
	AvgLen float64
	// Category shapes table kinds and entries.
	Category Category
	// Seed drives all randomness.
	Seed uint64
	// EntriesPerTable overrides the per-table entry count (0 = category
	// default).
	EntriesPerTable int
	// DiamondOnly makes every branch a conditional diamond (no
	// switch-case separators) — the shape where consecutive pipelet
	// groups chain (Figure 8, Figure 15).
	DiamondOnly bool
}

// fieldPool lists match fields the synthesizer draws from.
var fieldPool = []struct {
	name  string
	width int
}{
	{"ipv4.srcAddr", 32}, {"ipv4.dstAddr", 32},
	{"tcp.sport", 16}, {"tcp.dport", 16},
	{"ipv4.tos", 8}, {"ipv4.ttl", 8}, {"ipv4.proto", 8},
}

// Program synthesizes a program with roughly spec.Pipelets pipelets of
// mean length spec.AvgLen. The structure alternates conditional diamonds
// (two arm pipelets rejoining) with straight pipelets, which yields
// realistic mixes of short and long pipelets and join nodes.
func Program(spec ProgramSpec) *p4ir.Program {
	rng := stats.NewRNG(spec.Seed)
	b := p4ir.NewBuilder(fmt.Sprintf("synth-%s-pn%d", spec.Category, spec.Pipelets))
	if spec.Pipelets < 1 {
		spec.Pipelets = 1
	}
	if spec.AvgLen <= 0 {
		spec.AvgLen = 2
	}

	tableID := 0
	newTable := func(canDrop bool) p4ir.TableSpec {
		tableID++
		name := fmt.Sprintf("t%d", tableID)
		f := fieldPool[rng.Intn(len(fieldPool))]
		kind := p4ir.MatchExact
		switch spec.Category {
		case HighLocality:
			if rng.Intn(3) > 0 {
				if rng.Intn(2) == 0 {
					kind = p4ir.MatchTernary
				} else {
					kind = p4ir.MatchLPM
				}
			}
		case SmallStatic:
			kind = p4ir.MatchExact
		default:
			switch rng.Intn(4) {
			case 0:
				kind = p4ir.MatchLPM
			case 1:
				kind = p4ir.MatchTernary
			}
		}
		nPrims := 1 + rng.Intn(3)
		var prims []p4ir.Primitive
		for i := 0; i < nPrims; i++ {
			prims = append(prims, p4ir.Prim("modify_field", fmt.Sprintf("meta.%s_f%d", name, i), "1"))
		}
		acts := []*p4ir.Action{p4ir.NewAction("act_main", prims...), p4ir.NoopAction("act_miss")}
		dropTable := false
		switch spec.Category {
		case HeavyDrop:
			dropTable = canDrop && rng.Intn(2) == 0
		case SmallStatic:
			dropTable = false
		default:
			dropTable = canDrop && rng.Intn(4) == 0
		}
		if dropTable {
			acts = append(acts, p4ir.DropAction())
		}
		ts := p4ir.TableSpec{
			Name:          name,
			Keys:          []p4ir.Key{{Field: f.name, Kind: kind, Width: f.width}},
			Actions:       acts,
			DefaultAction: "act_miss",
		}
		ts.Entries = syntheticEntries(rng, ts, entryCount(spec, rng))
		return ts
	}

	pipeletLen := func() int {
		l := int(spec.AvgLen + (rng.Float64()-0.5)*2 + 0.5)
		if l < 1 {
			l = 1
		}
		return l
	}

	// buildChain adds a chain of n tables; returns (head, tailSpec names).
	var allSpecs []p4ir.TableSpec
	buildChain := func(n int) (head string, tails []int) {
		start := len(allSpecs)
		for i := 0; i < n; i++ {
			allSpecs = append(allSpecs, newTable(true))
		}
		for i := start; i < len(allSpecs)-1; i++ {
			allSpecs[i].Next = allSpecs[i+1].Name
		}
		return allSpecs[start].Name, []int{len(allSpecs) - 1}
	}

	// Pending successors: plain-table spec indices whose Next needs
	// patching, and switch-case spec indices whose ActionNext values need
	// patching.
	var linkNext []int
	var linkSw []int
	condID, swID := 0, 0
	root := ""
	connect := func(head string) {
		if root == "" {
			root = head
		}
		for _, i := range linkNext {
			allSpecs[i].Next = head
		}
		for _, i := range linkSw {
			for a := range allSpecs[i].ActionNext {
				allSpecs[i].ActionNext[a] = head
			}
		}
		linkNext, linkSw = nil, nil
	}
	newSwitchCase := func() int {
		swID++
		f := fieldPool[rng.Intn(len(fieldPool))]
		allSpecs = append(allSpecs, p4ir.TableSpec{
			Name: fmt.Sprintf("sw%d", swID),
			Keys: []p4ir.Key{{Field: f.name, Kind: p4ir.MatchExact, Width: f.width}},
			Actions: []*p4ir.Action{
				p4ir.NoopAction("path_a"),
				p4ir.NoopAction("path_b"),
			},
			DefaultAction: "path_b",
			ActionNext:    map[string]string{"path_a": "", "path_b": ""},
		})
		return len(allSpecs) - 1
	}

	// Pipelet accounting (see pipelet.Form): the initial chain is one
	// pipelet; a diamond's two arms are one each; a chain after a diamond
	// join or after a switch-case starts fresh; a switch-case table is a
	// pipelet of its own. The loop composes segments so the final count
	// is exactly spec.Pipelets.
	head, tails := buildChain(pipeletLen())
	connect(head)
	linkNext = tails
	made := 1
	for made < spec.Pipelets {
		rem := spec.Pipelets - made
		switch {
		case rem >= 3 && (spec.DiamondOnly || rng.Intn(3) > 0):
			// Diamond + join chain: 3 pipelets.
			condID++
			cname := fmt.Sprintf("c%d", condID)
			aHead, aTails := buildChain(pipeletLen())
			bHead, bTails := buildChain(pipeletLen())
			field := fieldPool[rng.Intn(len(fieldPool))]
			expr := fmt.Sprintf("%s > %d", field.name, rng.Intn(1<<min(field.width, 16)))
			b.Cond(cname, expr, aHead, bHead, field.name)
			connect(cname)
			linkNext = append(append(linkNext, aTails...), bTails...)
			jHead, jTails := buildChain(pipeletLen())
			connect(jHead)
			linkNext = jTails
			made += 3
		case rem >= 2:
			// Switch-case separator + chain: 2 pipelets.
			si := newSwitchCase()
			connect(allSpecs[si].Name)
			linkSw = []int{si}
			nHead, nTails := buildChain(pipeletLen())
			connect(nHead)
			linkNext = nTails
			made += 2
		default:
			// Lone switch-case separator: 1 pipelet.
			si := newSwitchCase()
			connect(allSpecs[si].Name)
			linkSw = []int{si}
			made++
		}
	}
	for _, ts := range allSpecs {
		b.Table(ts)
	}
	b.Root(root)
	prog := b.MustBuild()
	return prog
}

func entryCount(spec ProgramSpec, rng *stats.RNG) int {
	if spec.EntriesPerTable > 0 {
		return spec.EntriesPerTable
	}
	switch spec.Category {
	case SmallStatic:
		return 2 + rng.Intn(4) // small tables
	case HighLocality:
		return 16 + rng.Intn(64)
	default:
		return 4 + rng.Intn(28)
	}
}

// syntheticEntries installs n entries matching the table's key kinds,
// using the paper's benchmarking defaults: 3 distinct prefixes for LPM
// tables and 5 distinct masks for ternary tables (§3.1). Every entry is
// installable and selectable: masked keys are unique within their mask
// group (no build-time dedup losers, PL201), ternary priority tracks
// mask specificity so a coarse mask can never dominate a more specific
// one, and narrow groups are capped below their full value space so no
// mask group can enumerate every packet and starve the rest (PL202).
// An entry whose drawn mask class is full spills into the next class;
// only a table whose whole key space is exhausted comes up short.
func syntheticEntries(rng *stats.RNG, ts p4ir.TableSpec, n int) []p4ir.Entry {
	entries := make([]p4ir.Entry, 0, n)
	classes := maskClasses(ts.Keys)
	for i := 0; i < n; i++ {
		e := p4ir.Entry{Action: "act_main"}
		ok := true
		for ki, k := range ts.Keys {
			raw := uint64(rng.Intn(1 << min(k.BitWidth(), 20)))
			mv, placed := placeEntry(raw, i, classes[ki])
			if !placed {
				ok = false
				break
			}
			if k.Kind == p4ir.MatchTernary || k.Kind == p4ir.MatchRange {
				e.Priority = mv.priority
			}
			e.Match = append(e.Match, mv.MatchValue)
		}
		if ok {
			entries = append(entries, e)
		}
	}
	return entries
}

// placedMatch is one synthesized match value plus the entry priority its
// mask class dictates (ternary/range only).
type placedMatch struct {
	p4ir.MatchValue
	priority int
}

// maskClass is one mask class of a table key: the match value it fills
// in (prefix length or mask, and priority), its mask, the step that
// cycles through the mask's values, how many entries its group may take,
// and the group.
type maskClass struct {
	mv                placedMatch
	mask, step, space uint64
	g                 *valueGroup
}

// valueGroup holds the values placed under one signature of a table:
// match kind (range counting as ternary) and prefix length or mask. A
// narrow group (at most 1<<12 values) keeps an occupancy bitmap, bit
// v>>shift for value v; a wide one a set of its few placed values.
type valueGroup struct {
	n     int    // values placed
	mask  uint64 // the union of its classes' masks
	shift int    // the fewest trailing zeros among them
	bits  []uint64
	wide  map[uint64]bool
}

// maskClasses returns each key's mask classes. Classes per kind follow
// the paper's defaults: LPM prefixes at 1/4, 1/2, 3/4 of the key width;
// ternary masks keeping the top width-2c bits, with priority tied to
// specificity (the most specific mask ranks highest) so no entry is
// dominated by a coarser, higher-priority one. Classes of one table whose
// signatures coincide share a group sized for all of them — two exact
// keys, or LPM keys of different widths with equal prefix lengths — so a
// value one key placed is taken for the other.
func maskClasses(keys []p4ir.Key) [][]maskClass {
	var sigs [][2]uint64
	var groups []*valueGroup
	out := make([][]maskClass, len(keys))
	for ki, k := range keys {
		n, ternary := 1, k.Kind == p4ir.MatchTernary || k.Kind == p4ir.MatchRange
		if k.Kind == p4ir.MatchLPM {
			n = 3
		} else if ternary {
			n = 5
		}
		out[ki] = make([]maskClass, n)
		for c := range n {
			mc, sig := maskClass{mask: k.FullMask()}, [2]uint64{uint64(p4ir.MatchExact)}
			switch {
			case k.Kind == p4ir.MatchLPM:
				// A prefix must never exceed the key itself (a /24 on a
				// 16-bit port field is malformed; p4ir refuses it, P4S06).
				mc.mv.PrefixLen = (1 + c) * k.BitWidth() / 4
				mc.mask = k.PrefixMask(mc.mv.PrefixLen)
				sig = [2]uint64{uint64(p4ir.MatchLPM), uint64(mc.mv.PrefixLen)}
			case ternary:
				mc.mask &^= (uint64(1) << (c * 2)) - 1
				mc.mv.Mask, mc.mv.priority = mc.mask, 5-c
				sig = [2]uint64{uint64(p4ir.MatchTernary), mc.mask}
			}
			// A fully-enumerated mask group matches every packet, starving
			// everything at lower priority (the analyzer proves it): cap
			// each group one below its value space. A wildcard mask has a
			// one-entry space and takes exactly one entry.
			mc.step, mc.space = mc.mask&-mc.mask, uint64(1)<<62
			if ternary {
				if mc.step == 0 {
					mc.space = 1
				} else if w := bits.OnesCount64(mc.mask); w < 62 {
					mc.space = (uint64(1) << w) - 1
				}
			}
			j := slices.Index(sigs, sig)
			if j < 0 {
				j, sigs, groups = len(sigs), append(sigs, sig), append(groups, &valueGroup{shift: 64})
			}
			mc.g = groups[j]
			mc.g.mask |= mc.mask
			mc.g.shift = min(mc.g.shift, bits.TrailingZeros64(mc.mask)) // 64 for a wildcard
			out[ki][c] = mc
		}
	}
	for _, g := range groups {
		g.shift %= 64 // 64: wildcards only, the one value 0
		if span := g.mask >> g.shift; span < 1<<12 {
			g.bits = make([]uint64, span/64+1)
		} else {
			g.wide = map[uint64]bool{}
		}
	}
	return out
}

// claim places value v unless it is placed already, and reports whether
// it did.
func (g *valueGroup) claim(v uint64) bool {
	if i := v >> g.shift; g.bits != nil {
		if g.bits[i>>6]&(1<<(i&63)) != 0 {
			return false
		}
		g.bits[i>>6] |= 1 << (i & 63)
	} else if g.wide[v] {
		return false
	} else {
		g.wide[v] = true
	}
	g.n++
	return true
}

// placeEntry finds a free masked key for one table key, starting from
// entry index i's mask class and spilling into the following classes
// when a class's value space is full.
func placeEntry(raw uint64, i int, classes []maskClass) (placedMatch, bool) {
next:
	for attempt := range classes {
		c := &classes[(i+attempt)%len(classes)]
		if uint64(c.g.n) >= c.space {
			continue // class full: spill into the next one
		}
		// Masks are contiguous high blocks, so stepping by the mask's
		// lowest set bit cycles through the whole group space.
		mv := c.mv
		mv.Value = raw & c.mask
		for tries := 0; !c.g.claim(mv.Value); tries++ {
			if c.step == 0 || tries >= 1<<12 {
				continue next
			}
			mv.Value = (mv.Value + c.step) & c.mask
		}
		return mv, true
	}
	return placedMatch{}, false
}
