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
// proof tiers for one original program and owns their memo, keyed by the
// original's entry version; Gate puts Lint and a Verifier in front of a
// device and is what every deploy — a runtime's own or one received over
// the control plane — passes. Diagnostics carry stable rule codes (P4Sxx
// structural, PLxxx lint, RWxxx rewrite safety, SExxx semantics),
// warn/error severities, and node/field positions, and are collected
// exhaustively within a tier.
// Gates block on Error severity only; warnings are surfaced but never gate.
package analysis

import (
	"slices"
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
	CodeWidthMismatch = "PL104" // entry value bits no match compares
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

// graph bundles the derived views every rule needs: the program's index
// (reachability, topological order), the strict-precedence closure, and
// per-node dataflow effects by the index's IDs. The closure is a bitset row
// per node: sets of names cost a gate's first sight of a layout one map
// insert per ordered pair of nodes.
type graph struct {
	prog *p4ir.Program
	an   *deps.Analyzer
	ix   *p4ir.Index
	// desc: bit v of row u (words long) says node v is strictly after node
	// u on a path; nil for a structurally invalid program (callers gate).
	desc  []uint64
	words int
}

func newGraph(prog *p4ir.Program) *graph {
	g := &graph{prog: prog, ix: p4ir.NewIndex(prog)}
	g.an = deps.New(g.ix)
	if g.ix.Err() != nil {
		return g
	}
	g.words = (g.ix.Len() + 63) / 64
	g.desc = make([]uint64, g.ix.Len()*g.words)
	topo := g.ix.Topo()
	for i := len(topo) - 1; i >= 0; i-- {
		row := g.row(topo[i])
		for _, s := range g.ix.Succ(topo[i]) {
			row[s>>6] |= 1 << (s & 63)
			for w, bits := range g.row(s) {
				row[w] |= bits
			}
		}
	}
	return g
}

// row is node u's row of the closure.
func (g *graph) row(u int32) []uint64 { return g.desc[int(u)*g.words : int(u+1)*g.words] }

// id returns the node's ID if it is on some root path, else -1.
func (g *graph) id(name string) int32 {
	if id := g.ix.ID(name); id >= 0 && g.desc != nil && g.ix.Pos(id) >= 0 {
		return id
	}
	return -1
}

// reachable reports whether the node is on some root path.
func (g *graph) reachable(name string) bool { return g.id(name) >= 0 }

// before reports whether v is strictly after u on some execution path.
func (g *graph) before(u, v string) bool {
	i, j := g.id(u), g.id(v)
	return i >= 0 && j >= 0 && g.has(i, j)
}

// has is before by ID; false when either node is unreachable.
func (g *graph) has(i, j int32) bool { return g.desc[int(i)*g.words+int(j>>6)]&(1<<(j&63)) != 0 }

// effects returns the named node's dataflow effects; the zero value for a
// name no node has.
func (g *graph) effects(name string) deps.Effects { return g.an.Effects(g.ix.ID(name)) }

// lintUnreachable flags nodes that no root path visits (PL101, warn):
// they cost memory and obscure intent but cannot affect packets.
func lintUnreachable(g *graph) diag.List {
	var l diag.List
	for _, name := range g.ix.Names() {
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
	// writers lists, per field number, the reachable nodes that write it.
	writers := make([][]int32, g.an.NumFields())
	for _, u := range g.ix.Topo() {
		w := g.an.Effects(u).Writes
		for f := w.Next(0); f >= 0; f = w.Next(f + 1) {
			writers[f] = append(writers[f], u)
		}
	}
	// local holds the fields the action's earlier primitives wrote (after
	// a drop too, where the analyzer's effects stop).
	var local []string
	uninitialized := func(v int32, field string) bool {
		if parserInitialized(field) || knownFields[field] || slices.Contains(local, field) {
			return false
		}
		f := g.an.FieldNum(field)
		return f < 0 || !slices.ContainsFunc(writers[f], func(u int32) bool { return g.has(u, v) })
	}
	for id, name := range g.ix.Names() {
		v := int32(id)
		if g.ix.Pos(v) < 0 {
			continue
		}
		if t := g.ix.Table(v); t != nil {
			for _, k := range t.Keys {
				if uninitialized(v, k.Field) {
					l.Add(CodeReadBeforeIni, diag.Warn, name, k.Field,
						"match key %q is metadata never written before this table", k.Field)
				}
			}
			for _, a := range t.Actions {
				for _, pr := range a.Primitives {
					in := pr.Decode()
					for _, o := range in.Src {
						if o.Kind == p4ir.OperandField && uninitialized(v, o.Field) {
							l.Add(CodeReadBeforeIni, diag.Warn, name, o.Field,
								"action %q reads metadata %q never written before this table", a.Name, o.Field)
						}
					}
					if in.Dst != "" {
						local = append(local, in.Dst)
					}
				}
				local = local[:0]
			}
			continue
		}
		if c := g.ix.Cond(v); c != nil {
			for _, f := range c.ReadFields {
				if uninitialized(v, f) {
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
	for _, id := range g.ix.Tables() {
		name, t := g.ix.Name(id), g.ix.Table(id)
		for _, a := range t.Actions {
			for i, pr := range a.Primitives {
				if pr.Decode().Kind == p4ir.PrimDrop && i+1 < len(a.Primitives) {
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

// lintWidthMismatch warns of entry value bits below an LPM prefix or
// outside a ternary or range mask (PL104): the match never compares them,
// which usually indicates a mis-built entry. An entry that does not fit its
// keys at all is no entry of a valid program (p4ir's P4S06).
func lintWidthMismatch(g *graph) diag.List {
	var l diag.List
	for _, id := range g.ix.Tables() {
		name, t := g.ix.Name(id), g.ix.Table(id)
		for ei, e := range t.Entries {
			for ki, k := range t.Keys {
				if mv := e.Match[ki]; mv.Value&^k.MatchMask(mv) != 0 && (k.Kind == p4ir.MatchLPM || mv.Mask != 0) {
					l.Add(CodeWidthMismatch, diag.Warn, name, k.Field, "entry %d has value bits its %s match never compares", ei, k.Kind)
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
	var pinned []string
	total := 0
	for _, id := range g.ix.Tables() {
		name, t := g.ix.Name(id), g.ix.Table(id)
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
	for _, id := range g.ix.Tables() {
		if spec, ok := g.ix.Table(id).CacheMeta(); ok {
			l = append(l, cacheSpecDiags(g, spec)...)
		}
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
	cacheKeys := g.effects(name).KeyReads
	for _, c := range spec.Covers {
		eff := g.effects(c)
		if eff.SwitchCase {
			l.Add(CodeUnsoundCache, diag.Error, name, "",
				"covered table %q is switch-case; a cached verdict cannot reproduce its control flow", c)
		}
		for f := eff.KeyReads.Next(0); f >= 0; f = eff.KeyReads.Next(f + 1) {
			if !cacheKeys.Has(f) {
				l.Add(CodeUnsoundCache, diag.Error, name, g.an.Field(f),
					"cache key is missing %q, matched by covered table %q", g.an.Field(f), c)
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
			eu, ev := g.effects(u), g.effects(v)
			if f := g.an.Field(eu.Writes.First(ev.KeyReads)); f != "" {
				l.Add(CodeUnsoundCache, diag.Error, name, f,
					"covered table %q writes %q, matched by later covered table %q", u, f, v)
			}
			if spec.Prepopulated {
				if f := g.an.Field(eu.Writes.First(ev.Reads)); f != "" {
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
	if ci := g.id(name); ci >= 0 {
		for _, wi := range g.ix.Topo() {
			w := g.ix.Name(wi)
			if !g.has(ci, wi) || covered[w] {
				continue
			}
			betweenCover := false
			for _, v := range spec.Covers {
				if vi := g.id(v); vi >= 0 && g.has(wi, vi) {
					betweenCover = true
					break
				}
			}
			if !betweenCover {
				continue
			}
			if f := g.an.Field(g.an.Effects(wi).Writes.First(cacheKeys)); f != "" {
				l.Add(CodeUnsoundCache, diag.Error, name, f,
					"node %q between cache and its covers writes cache-key field %q", w, f)
			}
		}
	}
	return l
}
