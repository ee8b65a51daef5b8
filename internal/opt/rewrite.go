package opt

import (
	"fmt"
	"slices"
	"strings"

	"pipeleon/internal/p4ir"
	"pipeleon/internal/profile"
)

// CounterMap links the optimized program back to the original so that
// counters collected on the optimized layout can be translated into
// original-program probabilities (§4.1.2: "Pipeleon maintains a counter map
// that links the optimized program to its original counterpart").
type CounterMap struct {
	// Caches maps each generated cache table to the tables it covers.
	// Hits on the cache stand in for traffic through every covered table.
	Caches map[string][]string
	// MergedActions maps merged-table action names to the original
	// (table, action) pairs they combine.
	MergedActions map[string]map[string]map[string]string
	// Removed holds original tables deleted by in-place merges.
	Removed map[string]bool
	// Renamed maps optimized table names to original names for tables
	// that survive unchanged (identity unless a future pass renames).
	Renamed map[string]string
}

// NewCounterMap returns an empty map.
func NewCounterMap() *CounterMap {
	return &CounterMap{
		Caches:        map[string][]string{},
		MergedActions: map[string]map[string]map[string]string{},
		Removed:       map[string]bool{},
		Renamed:       map[string]string{},
	}
}

// Translate converts a profile collected on the optimized program into a
// profile expressed against the original program. Cache hits are
// distributed over the covered tables' actions proportionally to the
// miss-path distribution (or the default action when no misses were
// observed); merged-action counts are credited to each constituent
// original action ("summing up the corresponding counters in the cache
// table and original table").
func (cm *CounterMap) Translate(opt *profile.Profile, orig *p4ir.Program) *profile.Profile {
	out := profile.New()
	out.SampleRate = opt.SampleRate
	// Pass through counters for tables that exist in the original.
	for table, counts := range opt.ActionCounts {
		if _, ok := orig.Tables[table]; !ok {
			continue
		}
		m := map[string]uint64{}
		for a, c := range counts {
			m[a] = c
		}
		out.ActionCounts[table] = m
	}
	for cond, v := range opt.BranchCounts {
		out.BranchCounts[cond] = v
	}
	for k, v := range opt.UpdateRates {
		out.UpdateRates[k] = v
	}
	for k, v := range opt.KeyCardinality {
		if _, ok := orig.Tables[k]; ok {
			out.KeyCardinality[k] = v
		}
	}
	for k, v := range opt.CacheHits {
		out.CacheHits[k] = v
	}
	for k, v := range opt.CacheMisses {
		out.CacheMisses[k] = v
	}
	// Credit cache hits to covered tables.
	for cache, covers := range cm.Caches {
		hits := opt.CacheHits[cache]
		if hits == 0 {
			hits = opt.ActionCounts[cache]["cache_hit"]
		}
		if hits == 0 {
			continue
		}
		for _, tbl := range covers {
			ot, ok := orig.Tables[tbl]
			if !ok {
				continue
			}
			direct := out.ActionCounts[tbl]
			if direct == nil {
				direct = map[string]uint64{}
				out.ActionCounts[tbl] = direct
			}
			var total uint64
			for _, c := range direct {
				total += c
			}
			if total == 0 {
				direct[ot.DefaultAction] += hits
				continue
			}
			var distributed uint64
			var lastAction string
			for a, c := range direct {
				add := hits * c / total
				direct[a] += add
				distributed += add
				lastAction = a
			}
			if rem := hits - distributed; rem > 0 && lastAction != "" {
				direct[lastAction] += rem
			}
		}
	}
	// Credit merged-action counts to constituents.
	for merged, actions := range cm.MergedActions {
		counts := opt.ActionCounts[merged]
		for actName, origins := range actions {
			c := counts[actName]
			if c == 0 {
				continue
			}
			for origTable, origAction := range origins {
				m := out.ActionCounts[origTable]
				if m == nil {
					m = map[string]uint64{}
					out.ActionCounts[origTable] = m
				}
				m[origAction] += c
			}
		}
	}
	return out
}

// Rewrite is the result of applying a plan.
type Rewrite struct {
	// Program is the optimized program.
	Program *p4ir.Program
	// Digest is Program.Digest() on a rewrite Session.Materialize returned
	// (it keyed the proof); Apply leaves it zero.
	Digest p4ir.Digest
	// Map links optimized counters back to the original program.
	Map *CounterMap
	// Applied are the options realized (some may be skipped if the graph
	// changed since planning; none currently).
	Applied []*Option
}

// Apply clones prog and applies every option of the plan, producing the
// optimized program and its counter map. The input program is not
// modified.
func Apply(prog *p4ir.Program, plan []*Option, cfg Config) (*Rewrite, error) {
	out := prog.Clone()
	out.Name = prog.Name + ".optimized"
	cm := NewCounterMap()
	rw := &Rewrite{Program: out, Map: cm}
	for _, o := range plan {
		if err := applyOption(out, o, cm, cfg); err != nil {
			return nil, fmt.Errorf("opt: applying %s: %w", o, err)
		}
		rw.Applied = append(rw.Applied, o)
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("opt: optimized program invalid: %w", err)
	}
	return rw, nil
}

func applyOption(p *p4ir.Program, o *Option, cm *CounterMap, cfg Config) error {
	switch o.Kind {
	case OptPipelet:
		return applyPipeletOption(p, o, cm, cfg)
	case OptGroupCombo:
		for _, m := range o.Members {
			if m == nil {
				continue
			}
			if err := applyPipeletOption(p, m, cm, cfg); err != nil {
				return err
			}
		}
		return nil
	case OptGroupCache:
		return applyGroupCache(p, o, cm, cfg)
	case OptPlacement:
		return applyPlacement(p, o)
	}
	return fmt.Errorf("unknown option kind %d", o.Kind)
}

// applyPlacement records a placement decision on the program as tier
// annotations — an annotation-only rewrite: structure, wiring, and
// entries are untouched, so the rewrite trivially preserves dependency
// order (the verifier still checks the annotations themselves, RW005+).
func applyPlacement(p *p4ir.Program, o *Option) error {
	pl := o.Placement
	if pl == nil {
		return fmt.Errorf("placement option without a placement")
	}
	for name, d := range pl.Tier {
		t, ok := p.Tables[name]
		if !ok {
			return fmt.Errorf("placement assigns unknown table %q", name)
		}
		if d > 0 {
			t.SetTierAssignment(int(d))
		}
	}
	for name := range pl.Copies {
		t, ok := p.Tables[name]
		if !ok {
			return fmt.Errorf("placement copies unknown table %q", name)
		}
		t.SetTierCopied(true)
	}
	return nil
}

// redirect rewires every reference to node `from` so it points at `to`,
// except references held by nodes named in `internal` (the transformed
// span itself, whose freshly built wiring must not be clobbered).
func redirect(p *p4ir.Program, from, to string, internal map[string]bool) {
	if p.Root == from {
		p.Root = to
	}
	for name, t := range p.Tables {
		if internal[name] {
			continue
		}
		if t.BaseNext == from {
			t.BaseNext = to
		}
		for a, nxt := range t.ActionNext {
			if nxt == from {
				t.ActionNext[a] = to
			}
		}
		// Cache tables carry their routing in metadata too (the backend
		// follows the spec); keep it consistent.
		if spec, ok := t.CacheMeta(); ok {
			changed := false
			if spec.HitNext == from {
				spec.HitNext = to
				changed = true
			}
			if spec.MissNext == from {
				spec.MissNext = to
				changed = true
			}
			if changed {
				t.SetCacheMeta(spec)
			}
		}
	}
	for name, c := range p.Conds {
		if internal[name] {
			continue
		}
		if c.TrueNext == from {
			c.TrueNext = to
		}
		if c.FalseNext == from {
			c.FalseNext = to
		}
	}
}

// elemKind labels one element of a transformed pipelet layout.
type elemKind int

const (
	elemTable elemKind = iota
	elemCache
	elemMerge
)

type seqElem struct {
	kind   elemKind
	tables []string
}

// buildSequence lays out the pipelet as a sequence of plain tables and
// segment elements, in order.
func buildSequence(order []string, segs []Segment) []seqElem {
	covered := map[int]int{} // position -> segment index
	for si, s := range segs {
		for i := s.Start; i < s.Start+s.Len; i++ {
			covered[i] = si
		}
	}
	var out []seqElem
	for i := 0; i < len(order); {
		if si, ok := covered[i]; ok {
			s := segs[si]
			kind := elemCache
			if s.Kind == SegMerge {
				kind = elemMerge
			}
			out = append(out, seqElem{kind: kind, tables: order[s.Start : s.Start+s.Len]})
			i += s.Len
		} else {
			out = append(out, seqElem{kind: elemTable, tables: order[i : i+1]})
			i++
		}
	}
	return out
}

// applyPipeletOption rebuilds the pipelet's chain per the option: tables
// in the option's order, with cache/merge segments materialized.
func applyPipeletOption(p *p4ir.Program, o *Option, cm *CounterMap, cfg Config) error {
	for _, tbl := range o.Order {
		if _, ok := p.Tables[tbl]; !ok {
			return fmt.Errorf("table %q missing (already transformed?)", tbl)
		}
	}
	oldHead := o.Pipelet.Head()
	exit := o.Pipelet.ExitNext
	elems := buildSequence(o.Order, o.Segments)

	// Entry node of each element, computed as we materialize them.
	entries := make([]string, len(elems))
	nextOf := func(i int) string {
		if i+1 < len(elems) {
			return entries[i+1]
		}
		return exit
	}
	// First pass: create generated tables so entries are known; we build
	// back-to-front so each element knows its successor.
	for i := len(elems) - 1; i >= 0; i-- {
		e := elems[i]
		switch e.kind {
		case elemTable:
			entries[i] = e.tables[0]
		case elemCache:
			name, err := buildCacheTable(p, e.tables, cfg)
			if err != nil {
				return err
			}
			entries[i] = name
			cm.Caches[name] = append([]string(nil), e.tables...)
		case elemMerge:
			allExact := true
			for _, tbl := range e.tables {
				if p.Tables[tbl].WidestMatchKind() != p4ir.MatchExact {
					allExact = false
					break
				}
			}
			if allExact {
				name, err := buildMergedCache(p, e.tables, cfg, cm)
				if err != nil {
					return err
				}
				entries[i] = name
				cm.Caches[name] = append([]string(nil), e.tables...)
			} else {
				name, err := buildInPlaceMerge(p, e.tables, cm)
				if err != nil {
					return err
				}
				entries[i] = name
			}
		}
	}
	// Second pass: wire successors.
	for i, e := range elems {
		succ := nextOf(i)
		switch e.kind {
		case elemTable:
			p.Tables[e.tables[0]].BaseNext = succ
		case elemCache:
			wireCacheSpan(p, entries[i], e.tables, succ)
		case elemMerge:
			if _, stillThere := p.Tables[e.tables[0]]; stillThere && p.Tables[entries[i]].Annotations[p4ir.AnnotKind] == p4ir.KindMergedCache {
				wireCacheSpan(p, entries[i], e.tables, succ)
			} else {
				p.Tables[entries[i]].BaseNext = succ
			}
		}
	}
	// Redirect external predecessors of the old head to the new entry,
	// leaving the freshly built internal wiring intact.
	newEntry := entries[0]
	if newEntry != oldHead {
		internal := map[string]bool{}
		for _, tbl := range o.Order {
			internal[tbl] = true
		}
		for _, e := range entries {
			internal[e] = true
		}
		redirect(p, oldHead, newEntry, internal)
	}
	return nil
}

// wireCacheSpan wires cache -> (hit: succ | miss: first covered), chains
// the covered tables, and points the last covered table at succ.
func wireCacheSpan(p *p4ir.Program, cache string, covers []string, succ string) {
	ct := p.Tables[cache]
	if ct.Action("cache_hit") != nil {
		ct.ActionNext["cache_hit"] = succ
	}
	ct.ActionNext["cache_miss"] = covers[0]
	if spec, ok := ct.CacheMeta(); ok {
		spec.HitNext = succ
		spec.MissNext = covers[0]
		ct.SetCacheMeta(spec)
	}
	for i, tbl := range covers {
		if i+1 < len(covers) {
			p.Tables[tbl].BaseNext = covers[i+1]
		} else {
			p.Tables[tbl].BaseNext = succ
		}
	}
	// Merged caches route every combined action to succ as well.
	for a := range ct.ActionNext {
		if strings.HasPrefix(a, "hit·") {
			ct.ActionNext[a] = succ
		}
	}
}

// buildCacheTable creates a runtime-filled flow cache covering the span.
func buildCacheTable(p *p4ir.Program, covers []string, cfg Config) (string, error) {
	name := p4ir.GeneratedName(p4ir.KindCache, covers)
	if _, exists := p.Tables[name]; exists {
		return "", fmt.Errorf("cache %q already exists", name)
	}
	keySet := map[string]p4ir.Key{}
	for _, tbl := range covers {
		for _, k := range p.Tables[tbl].Keys {
			if _, ok := keySet[k.Field]; !ok {
				keySet[k.Field] = p4ir.Key{Field: k.Field, Kind: p4ir.MatchExact, Width: k.Width}
			}
		}
	}
	var keys []p4ir.Key
	for _, tbl := range covers {
		for _, k := range p.Tables[tbl].Keys {
			if kk, ok := keySet[k.Field]; ok {
				keys = append(keys, kk)
				delete(keySet, k.Field)
			}
		}
	}
	ct := &p4ir.Table{
		Name: name,
		Keys: keys,
		Actions: []*p4ir.Action{
			{Name: "cache_hit"},
			{Name: "cache_miss"},
		},
		DefaultAction: "cache_miss",
		ActionNext:    map[string]string{"cache_hit": "", "cache_miss": covers[0]},
		MaxEntries:    cfg.CacheBudgetEntries,
	}
	ct.SetCacheMeta(p4ir.CacheSpec{
		Table: name, Kind: p4ir.KindCache,
		Covers:      covers,
		MissNext:    covers[0],
		Budget:      cfg.CacheBudgetEntries,
		InsertLimit: cfg.CacheInsertLimit,
	})
	p.Tables[name] = ct
	return name, nil
}

// combineActions concatenates the primitives of one action per member
// table into a single action named "a1·a2·...".
func combineActions(parts []*p4ir.Action) *p4ir.Action {
	names := make([]string, len(parts))
	var prims []p4ir.Primitive
	for i, a := range parts {
		names[i] = a.Name
		for _, pr := range a.Primitives {
			prims = append(prims, p4ir.Primitive{Op: pr.Op, Args: append([]string(nil), pr.Args...)})
		}
	}
	return &p4ir.Action{Name: strings.Join(names, "·"), Primitives: prims}
}

// buildMergedCache creates a pre-populated merged-exact cache: an exact
// table over the concatenated keys whose entries are the cross product of
// the members' entries ("hit all members"); packets missing it fall back
// to the original tables (§3.2.3).
func buildMergedCache(p *p4ir.Program, covers []string, cfg Config, cm *CounterMap) (string, error) {
	name := p4ir.GeneratedName(p4ir.KindMergedCache, covers)
	if _, exists := p.Tables[name]; exists {
		return "", fmt.Errorf("merged cache %q already exists", name)
	}
	members := make([]*p4ir.Table, len(covers))
	var keys []p4ir.Key
	for i, tbl := range covers {
		members[i] = p.Tables[tbl]
		keys = append(keys, members[i].Keys...)
	}
	mt := &p4ir.Table{
		Name:          name,
		Keys:          keys,
		Actions:       []*p4ir.Action{{Name: "cache_miss"}},
		DefaultAction: "cache_miss",
		ActionNext:    map[string]string{"cache_miss": covers[0]},
	}
	origin := map[string]map[string]string{}
	// Cross product of member entries (all-hit combos only), capped: an
	// odometer over the members' entry indices, the last member fastest.
	total := 1
	for _, m := range members {
		total = min(total*len(m.Entries), 1<<16)
	}
	mt.Entries = make([]p4ir.Entry, 0, total)
	at := make([]int, len(members))
	seenAction := map[string]bool{}
	for n := 0; n < total; n++ {
		parts := make([]*p4ir.Action, len(members))
		match := slices.Grow([]p4ir.MatchValue(nil), len(keys))
		var args []string
		for i, m := range members {
			e := &m.Entries[at[i]]
			parts[i] = m.Action(e.Action)
			match = append(match, e.Match...)
			args = append(args, e.Args...)
		}
		ca := combineActions(parts)
		ca.Name = "hit·" + ca.Name
		if !seenAction[ca.Name] {
			seenAction[ca.Name] = true
			mt.Actions = append(mt.Actions, ca)
			mt.ActionNext[ca.Name] = ""
			om := map[string]string{}
			for i, m := range members {
				om[covers[i]] = m.Entries[at[i]].Action
			}
			origin[ca.Name] = om
		}
		mt.Entries = append(mt.Entries, p4ir.Entry{Match: match, Action: ca.Name, Args: args})
		for i := len(at) - 1; i >= 0; i-- {
			if at[i]++; at[i] < len(members[i].Entries) {
				break
			}
			at[i] = 0
		}
	}
	mt.SetCacheMeta(p4ir.CacheSpec{
		Table: name, Kind: p4ir.KindMergedCache,
		Covers:   covers,
		MissNext: covers[0],
		Budget:   0, // pre-populated; no LRU
	})
	p.Tables[name] = mt
	cm.MergedActions[name] = origin
	return name, nil
}

// buildInPlaceMerge creates a ternary merged table replacing the members
// entirely, including the wildcard combinations of Figure 6 that preserve
// hit/miss semantics, and removes the member tables from the program.
func buildInPlaceMerge(p *p4ir.Program, covers []string, cm *CounterMap) (string, error) {
	name := p4ir.GeneratedName(p4ir.KindMerged, covers)
	if _, exists := p.Tables[name]; exists {
		return "", fmt.Errorf("merged table %q already exists", name)
	}
	members := make([]*p4ir.Table, len(covers))
	var keys []p4ir.Key
	for i, tbl := range covers {
		members[i] = p.Tables[tbl]
		for _, k := range members[i].Keys {
			keys = append(keys, p4ir.Key{Field: k.Field, Kind: p4ir.MatchTernary, Width: k.Width})
		}
	}
	mt := &p4ir.Table{Name: name, Keys: keys}
	origin := map[string]map[string]string{}

	// Per member: its entries plus one "wildcard = miss" pseudo-entry.
	type choice struct {
		entry *p4ir.Entry // nil = miss (wildcard)
	}
	var rec func(i int, acc []choice)
	addCombo := func(acc []choice) {
		parts := make([]*p4ir.Action, len(members))
		var match []p4ir.MatchValue
		var args []string
		prio := 0
		for i, ch := range acc {
			m := members[i]
			if ch.entry != nil {
				prio++
				parts[i] = m.Action(ch.entry.Action)
				for ki, mv := range ch.entry.Match {
					k := m.Keys[ki]
					out := p4ir.MatchValue{Value: mv.Value}
					switch k.Kind {
					case p4ir.MatchExact:
						out.Mask = k.FullMask()
					case p4ir.MatchLPM:
						out.Mask = k.PrefixMask(mv.PrefixLen)
					default:
						out.Mask = mv.Mask
					}
					match = append(match, out)
				}
				args = append(args, ch.entry.Args...)
			} else {
				parts[i] = m.Action(m.DefaultAction)
				for range m.Keys {
					match = append(match, p4ir.MatchValue{Value: 0, Mask: 0}) // full wildcard
				}
			}
		}
		ca := combineActions(parts)
		if mt.Action(ca.Name) == nil {
			mt.Actions = append(mt.Actions, ca)
			om := map[string]string{}
			for i, ch := range acc {
				if ch.entry != nil {
					om[covers[i]] = ch.entry.Action
				} else {
					om[covers[i]] = members[i].DefaultAction
				}
			}
			origin[ca.Name] = om
		}
		allMiss := prio == 0
		if allMiss {
			mt.DefaultAction = ca.Name
			return // the all-wildcard case is the default action, not an entry
		}
		mt.Entries = append(mt.Entries, p4ir.Entry{Priority: prio, Match: match, Action: ca.Name, Args: args})
	}
	rec = func(i int, acc []choice) {
		if len(mt.Entries) >= 1<<16 {
			return
		}
		if i == len(members) {
			addCombo(acc)
			return
		}
		for ei := range members[i].Entries {
			rec(i+1, append(acc, choice{entry: &members[i].Entries[ei]}))
		}
		rec(i+1, append(acc, choice{entry: nil}))
	}
	rec(0, nil)
	if mt.DefaultAction == "" {
		// No entries at all: default to combined defaults.
		parts := make([]*p4ir.Action, len(members))
		for i, m := range members {
			parts[i] = m.Action(m.DefaultAction)
		}
		ca := combineActions(parts)
		mt.Actions = append(mt.Actions, ca)
		mt.DefaultAction = ca.Name
		om := map[string]string{}
		for i, m := range members {
			om[covers[i]] = m.DefaultAction
		}
		origin[ca.Name] = om
	}
	if mt.Annotations == nil {
		mt.Annotations = map[string]string{}
	}
	mt.Annotations[p4ir.AnnotKind] = p4ir.KindMerged
	mt.Annotations[p4ir.AnnotCovers] = strings.Join(covers, ",")
	p.Tables[name] = mt
	cm.MergedActions[name] = origin
	for _, tbl := range covers {
		cm.Removed[tbl] = true
		delete(p.Tables, tbl)
	}
	return name, nil
}

// applyGroupCache inserts a cache in front of the group's branch node:
// hits skip the whole group to its exit, misses fall into the branch.
func applyGroupCache(p *p4ir.Program, o *Option, cm *CounterMap, cfg Config) error {
	g := o.Group
	covers := g.Tables()
	name, err := buildCacheTable(p, covers, cfg)
	if err != nil {
		return err
	}
	ct := p.Tables[name]
	// Include every internal branch's read fields in the cache key: the
	// branch outcomes are part of the cached control flow.
	have := map[string]bool{}
	for _, k := range ct.Keys {
		have[k.Field] = true
	}
	branches := g.Branches
	if len(branches) == 0 {
		branches = []string{g.Branch}
	}
	for _, bn := range branches {
		if cond, ok := p.Conds[bn]; ok {
			for _, f := range cond.ReadFields {
				if !have[f] {
					have[f] = true
					ct.Keys = append(ct.Keys, p4ir.Key{Field: f, Kind: p4ir.MatchExact})
				}
			}
		}
	}
	ct.ActionNext["cache_hit"] = g.Exit
	ct.ActionNext["cache_miss"] = g.Branch
	spec, _ := ct.CacheMeta()
	spec.HitNext = g.Exit
	spec.MissNext = g.Branch
	ct.SetCacheMeta(spec)
	cm.Caches[name] = covers
	redirect(p, g.Branch, name, map[string]bool{name: true})
	return nil
}
