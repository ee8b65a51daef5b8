// Package analysis is the static-analysis subsystem over the p4ir IR.
//
// It provides two rule families on top of the structural checks that
// p4ir.Validate performs:
//
//   - Program lint (Lint): semantic rules — unreachable nodes, fields read
//     before any write or parser initialization, dead primitives after an
//     unconditional drop, match-key width/mask inconsistencies, memory-tier
//     capacity overcommit against the active costmodel tier sizes, and
//     unsound cache specs.
//
//   - Transformation safety (verify.go, deep.go): the proof rules — an
//     optimized program preserves every dependency ordering of the
//     original modulo the declared rewrites (RewriteChecker) and, one tier
//     deeper, its packet semantics (SemanticChecker).
//
// The rules are primitives; two types compose them. Verifier runs the
// proof tiers for one original program and owns their memo and the entry
// epoch; Gate puts Lint and a Verifier in front of a device and is what
// every deploy — a runtime's own or one received over the control plane —
// passes. Diagnostics carry stable rule codes (P4Sxx structural, PLxxx
// lint, RWxxx rewrite safety, SExxx semantics), warn/error severities, and
// node/field positions, and are collected exhaustively within a tier.
// Gates block on Error severity only; warnings are surfaced but never gate.
package analysis

import (
	"slices"
	"sort"
	"strings"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/deps"
	"pipeleon/internal/diag"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
)

// Lint rule codes.
const (
	CodeUnreachable   = "PL101" // node not reachable from the root
	CodeReadBeforeIni = "PL102" // metadata field read before any write
	CodeDeadPrimitive = "PL103" // primitives after an unconditional drop
	CodeWidthMismatch = "PL104" // entry value/mask exceeds the key width
	CodeTierOvercommt = "PL105" // SRAM tier overcommitted / unsupported
	CodeUnsoundCache  = "PL106" // cache spec violates caching legality
)

type config struct {
	pm        costmodel.Params
	hasParams bool
}

// Option configures Lint.
type Option func(*config)

// WithParams supplies the active cost-model parameters, enabling the
// memory-tier capacity rules (PL105) against the target's tier sizes.
func WithParams(pm costmodel.Params) Option {
	return func(c *config) {
		c.pm = pm
		c.hasParams = true
	}
}

// Lint runs every program-lint rule over prog and returns the combined
// diagnostic list, sorted deterministically. Structural violations (the
// p4ir.Validate invariants) are reported first; when any is present the
// semantic rules are skipped, since they assume a well-formed graph.
func Lint(prog *p4ir.Program, opts ...Option) diag.List {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	l := prog.StructuralDiagnostics()
	if l.HasErrors() {
		l.Sort()
		return l
	}
	g := newGraph(prog)
	l = append(l, lintUnreachable(g)...)
	l = append(l, lintReadBeforeInit(g)...)
	l = append(l, lintDeadPrimitives(g)...)
	l = append(l, lintWidthMismatch(g)...)
	if cfg.hasParams {
		l = append(l, lintMemoryTiers(g, cfg.pm)...)
	}
	l = append(l, lintCacheSpecs(g)...)
	l.Sort()
	return l
}

// graph bundles the derived views every rule needs: the reachable set, the
// strict-precedence closure, and per-table dataflow effects. The closure is
// a bitset row per reachable node: sets of names cost a gate's first sight
// of a layout one map insert per ordered pair of nodes.
type graph struct {
	prog *p4ir.Program
	an   *deps.Analyzer
	// topo is the reachable nodes in topological order, idx a node's place
	// in it; empty for a structurally invalid program (callers gate on that).
	topo []string
	idx  map[string]int
	// desc: bit v of row u (words long) says v is strictly after u on a path.
	desc  []uint64
	words int
}

func newGraph(prog *p4ir.Program) *graph {
	g := &graph{prog: prog, an: deps.NewAnalyzer(prog)}
	order, err := prog.TopoOrder()
	if err != nil {
		return g
	}
	g.topo = order
	g.idx = make(map[string]int, len(order))
	for i, n := range order {
		g.idx[n] = i
	}
	g.words = (len(order) + 63) / 64
	g.desc = make([]uint64, len(order)*g.words)
	for i := len(order) - 1; i >= 0; i-- {
		row := g.row(i)
		for _, s := range prog.Successors(order[i]) {
			j := g.idx[s]
			row[j>>6] |= 1 << (j & 63)
			for w, bits := range g.row(j) {
				row[w] |= bits
			}
		}
	}
	return g
}

// row is node i's row of the closure.
func (g *graph) row(i int) []uint64 { return g.desc[i*g.words : (i+1)*g.words] }

// reachable reports whether the node is on some root path.
func (g *graph) reachable(name string) bool {
	_, ok := g.idx[name]
	return ok
}

// before reports whether v is strictly after u on some execution path.
func (g *graph) before(u, v string) bool {
	i, ok := g.idx[u]
	j, ok2 := g.idx[v]
	return ok && ok2 && g.has(i, j)
}

// has is before by place in topo.
func (g *graph) has(i, j int) bool { return g.desc[i*g.words+j>>6]&(1<<(j&63)) != 0 }

// reads returns the full read set of a node (tables: keys + action
// operands; conditionals: expression read fields).
func (g *graph) reads(name string) deps.FieldSet {
	if _, ok := g.prog.Tables[name]; ok {
		return g.an.Effects(name).Reads
	}
	if c, ok := g.prog.Conds[name]; ok {
		s := deps.FieldSet{}
		s.Add(c.ReadFields...)
		return s
	}
	return nil
}

// writes returns the write set of a node (conditionals never write).
func (g *graph) writes(name string) deps.FieldSet {
	if _, ok := g.prog.Tables[name]; ok {
		return g.an.Effects(name).Writes
	}
	return nil
}

// lintUnreachable flags nodes that no root path visits (PL101, warn):
// they cost memory and obscure intent but cannot affect packets.
func lintUnreachable(g *graph) diag.List {
	var l diag.List
	for _, name := range g.prog.NodeNames() {
		if !g.reachable(name) {
			l.Add(CodeUnreachable, diag.Warn, name, "", "node is unreachable from root %q", g.prog.Root)
		}
	}
	return l
}

// parserInitialized reports whether a field is initialized before the
// pipeline runs: every non-metadata header field is parser-extracted, and
// the packet registry's known fields are authoritative for the emulator.
func parserInitialized(field string) bool {
	return !strings.HasPrefix(field, "meta.")
}

var knownFields = func() map[string]bool {
	m := map[string]bool{}
	for _, f := range packet.KnownFields() {
		m[f] = true
	}
	return m
}()

// lintReadBeforeInit flags metadata fields read by a node before any
// earlier node on every path could have written them (PL102, warn).
// Header fields are parser-initialized; metadata starts zeroed, so a read
// with no ancestor write is almost always a wiring bug. Within an action,
// a primitive may read metadata a preceding primitive of the same action
// wrote.
func lintReadBeforeInit(g *graph) diag.List {
	var l diag.List
	// writers lists, per field, the nodes that write it, by place in topo.
	writers := map[string][]int{}
	for i, u := range g.topo {
		for f := range g.writes(u) {
			writers[f] = append(writers[f], i)
		}
	}
	uninitialized := func(node, field string, local deps.FieldSet) bool {
		if parserInitialized(field) || knownFields[field] {
			return false
		}
		if local != nil && local[field] {
			return false
		}
		v := g.idx[node]
		return !slices.ContainsFunc(writers[field], func(u int) bool { return g.has(u, v) })
	}
	names := append([]string(nil), g.topo...)
	sort.Strings(names)
	for _, name := range names {
		if t, ok := g.prog.Tables[name]; ok {
			for _, k := range t.Keys {
				if uninitialized(name, k.Field, nil) {
					l.Add(CodeReadBeforeIni, diag.Warn, name, k.Field,
						"match key %q is metadata never written before this table", k.Field)
				}
			}
			for _, a := range t.Actions {
				local := deps.FieldSet{}
				for _, pr := range a.Primitives {
					switch pr.Op {
					case "modify_field", "add", "subtract":
						for _, arg := range pr.Args[1:] {
							if p4ir.IsFieldRef(arg) && uninitialized(name, arg, local) {
								l.Add(CodeReadBeforeIni, diag.Warn, name, arg,
									"action %q reads metadata %q never written before this table", a.Name, arg)
							}
						}
						if len(pr.Args) > 0 {
							local[pr.Args[0]] = true
						}
					}
				}
			}
			continue
		}
		if c, ok := g.prog.Conds[name]; ok {
			for _, f := range c.ReadFields {
				if uninitialized(name, f, nil) {
					l.Add(CodeReadBeforeIni, diag.Warn, name, f,
						"branch reads metadata %q never written before this conditional", f)
				}
			}
		}
	}
	return l
}

// lintDeadPrimitives flags primitives that follow an unconditional drop in
// the same action (PL103, warn): the packet is gone, so they never run.
func lintDeadPrimitives(g *graph) diag.List {
	var l diag.List
	names := make([]string, 0, len(g.prog.Tables))
	for name := range g.prog.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := g.prog.Tables[name]
		for _, a := range t.Actions {
			for i, pr := range a.Primitives {
				if pr.IsDrop() && i+1 < len(a.Primitives) {
					l.Add(CodeDeadPrimitive, diag.Warn, name, "",
						"action %q has %d primitive(s) after the drop at position %d",
						a.Name, len(a.Primitives)-i-1, i)
					break
				}
			}
		}
	}
	return l
}

// lintWidthMismatch checks every installed entry against its key widths
// (PL104): values or masks that do not fit the declared width can never
// match (error); value bits outside a ternary mask or below an LPM prefix
// are silently ignored by the match and usually indicate a mis-built
// entry (warn).
func lintWidthMismatch(g *graph) diag.List {
	var l diag.List
	names := make([]string, 0, len(g.prog.Tables))
	for name := range g.prog.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := g.prog.Tables[name]
		for ei, e := range t.Entries {
			for ki, k := range t.Keys {
				if ki >= len(e.Match) {
					break // arity mismatch is a structural error
				}
				mv := e.Match[ki]
				full := k.FullMask()
				if mv.Value&^full != 0 {
					l.Add(CodeWidthMismatch, diag.Error, name, k.Field,
						"entry %d value %#x exceeds the %d-bit key width", ei, mv.Value, k.BitWidth())
					continue
				}
				switch k.Kind {
				case p4ir.MatchLPM:
					if mv.PrefixLen > k.BitWidth() {
						l.Add(CodeWidthMismatch, diag.Error, name, k.Field,
							"entry %d prefix length %d exceeds the %d-bit key width", ei, mv.PrefixLen, k.BitWidth())
					} else if mv.Value&^k.PrefixMask(mv.PrefixLen) != 0 {
						l.Add(CodeWidthMismatch, diag.Warn, name, k.Field,
							"entry %d has value bits below its /%d prefix that are never compared", ei, mv.PrefixLen)
					}
				case p4ir.MatchTernary, p4ir.MatchRange:
					if mv.Mask&^full != 0 {
						l.Add(CodeWidthMismatch, diag.Error, name, k.Field,
							"entry %d mask %#x exceeds the %d-bit key width", ei, mv.Mask, k.BitWidth())
					} else if mv.Mask != 0 && mv.Value&^mv.Mask != 0 {
						l.Add(CodeWidthMismatch, diag.Warn, name, k.Field,
							"entry %d has value bits outside its mask that are never compared", ei)
					}
				}
			}
		}
	}
	return l
}

// lintMemoryTiers checks memory-tier placement against the target (PL105):
// pinning tables to SRAM on a target without a tier model is a silent
// no-op (warn); overcommitting the SRAM capacity means the placement
// cannot be realized (error). Accounting is Table.MemoryBytes, as in
// opt.PlanMemoryTiers.
func lintMemoryTiers(g *graph, pm costmodel.Params) diag.List {
	var l diag.List
	names := make([]string, 0, len(g.prog.Tables))
	for name := range g.prog.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	var pinned []string
	total := 0
	for _, name := range names {
		t := g.prog.Tables[name]
		if t.MemTier() != p4ir.TierSRAM {
			continue
		}
		pinned = append(pinned, name)
		total += t.MemoryBytes()
	}
	if len(pinned) == 0 {
		return nil
	}
	if pm.SRAMFactor <= 0 {
		for _, name := range pinned {
			l.Add(CodeTierOvercommt, diag.Warn, name, "",
				"table pinned to sram but target %q models no sram tier", pm.Name)
		}
		return l
	}
	if pm.SRAMBytes > 0 && total > pm.SRAMBytes {
		l.Add(CodeTierOvercommt, diag.Error, "", "",
			"sram tier overcommitted: %d tables need %d bytes, target %q provides %d",
			len(pinned), total, pm.Name, pm.SRAMBytes)
	}
	return l
}

// lintCacheSpecs validates every cache directive in the program (PL106).
// A cache's verdict must be a pure function of the packet at the cache
// table: the covered tables must exist on the miss path, must not be
// switch-case, no covered table on a path may write a later covered
// table's match key, and nothing between the cache and its covers may
// write a cache-key field. Prepopulated merged caches additionally apply
// the covered actions combined on a hit, so no earlier cover may write
// any field a later cover reads.
func lintCacheSpecs(g *graph) diag.List {
	var l diag.List
	specs := g.prog.CacheSpecs()
	names := make([]string, 0, len(specs))
	for name := range specs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		l = append(l, cacheSpecDiags(g, specs[name])...)
	}
	return l
}

func cacheSpecDiags(g *graph, spec p4ir.CacheSpec) diag.List {
	var l diag.List
	name := spec.Table
	if len(spec.Covers) == 0 {
		l.Add(CodeUnsoundCache, diag.Error, name, "", "cache covers no tables")
		return l
	}
	covered := map[string]bool{}
	for _, c := range spec.Covers {
		covered[c] = true
		if _, ok := g.prog.Tables[c]; !ok {
			l.Add(CodeUnsoundCache, diag.Error, name, "",
				"cache covers %q, which is not a table in the program", c)
		}
	}
	for _, nxt := range []string{spec.HitNext, spec.MissNext} {
		if nxt != "" && !g.prog.Has(nxt) {
			l.Add(CodeUnsoundCache, diag.Error, name, "",
				"cache successor %q names no node", nxt)
		}
	}
	if l.HasErrors() {
		return l
	}
	ct := g.prog.Tables[name]
	cacheKeys := deps.FieldSet{}
	for _, k := range ct.Keys {
		cacheKeys[k.Field] = true
	}
	for _, c := range spec.Covers {
		eff := g.an.Effects(c)
		if eff.SwitchCase {
			l.Add(CodeUnsoundCache, diag.Error, name, "",
				"covered table %q is switch-case; a cached verdict cannot reproduce its control flow", c)
		}
		for f := range eff.KeyReads {
			if !cacheKeys[f] {
				l.Add(CodeUnsoundCache, diag.Error, name, f,
					"cache key is missing %q, matched by covered table %q", f, c)
			}
		}
	}
	// Path-aware pairwise checks among covers: only pairs that can occur
	// on one execution path matter, which keeps group caches (covers on
	// sibling branch arms) out of false positives.
	for _, u := range spec.Covers {
		for _, v := range spec.Covers {
			if u == v || !g.before(u, v) {
				continue
			}
			eu, ev := g.an.Effects(u), g.an.Effects(v)
			if f := firstCommon(eu.Writes, ev.KeyReads); f != "" {
				l.Add(CodeUnsoundCache, diag.Error, name, f,
					"covered table %q writes %q, matched by later covered table %q", u, f, v)
			}
			if spec.Prepopulated {
				if f := firstCommon(eu.Writes, ev.Reads); f != "" {
					l.Add(CodeUnsoundCache, diag.Error, name, f,
						"merged-cache cover %q writes %q, read by later cover %q", u, f, v)
				}
				if eu.Drops {
					l.Add(CodeUnsoundCache, diag.Error, name, "",
						"merged-cache cover %q can drop before later cover %q", u, v)
				}
			}
		}
	}
	// Nothing strictly between the cache and a covered table may write a
	// cache-key field: the verdict was keyed on the packet as it passed
	// the cache.
	if ci, ok := g.idx[name]; ok {
		for wi, w := range g.topo {
			if !g.has(ci, wi) || covered[w] {
				continue
			}
			betweenCover := false
			for _, v := range spec.Covers {
				if vi, ok := g.idx[v]; ok && g.has(wi, vi) {
					betweenCover = true
					break
				}
			}
			if !betweenCover {
				continue
			}
			if f := firstCommon(g.writes(w), cacheKeys); f != "" {
				l.Add(CodeUnsoundCache, diag.Error, name, f,
					"node %q between cache and its covers writes cache-key field %q", w, f)
			}
		}
	}
	return l
}

// firstCommon returns the lexicographically first field in both sets, or
// "" when disjoint — a stable witness for diagnostics.
func firstCommon(a, b deps.FieldSet) string {
	var out string
	for f := range a {
		if b[f] && (out == "" || f < out) {
			out = f
		}
	}
	return out
}
