package analysis

import (
	"slices"
	"strings"

	"pipeleon/internal/deps"
	"pipeleon/internal/diag"
	"pipeleon/internal/p4ir"
)

// Rewrite-safety rule codes.
const (
	CodeVerifyInput  = "RW000" // input program is not analyzable
	CodeLostNode     = "RW001" // original node dropped or unreachable
	CodeBrokenDep    = "RW002" // dependency ordering reversed or lost
	CodeBadCovers    = "RW003" // generated table's covers are inconsistent
	CodeUnsoundXform = "RW004" // declared rewrite violates its legality rule
	CodeTierFloor    = "RW005" // tier assignment below the table's floor (or copy of a floored table)
	CodeStickyCopied = "RW006" // sticky (single-instance state) table replicated across tiers
	CodeBadTier      = "RW007" // malformed tier annotation
)

// VerifyRewrite proves that opt preserves every dependency ordering of
// orig modulo the declared rewrites (cache, merge, memtier). It
// recomputes the internal/deps dependency graph of the original program
// and checks, for every read-after-write, write-after-read, and
// write-after-write edge u→v between nodes on a common execution path,
// that the optimized program still runs (the representation of) u before
// (the representation of) v:
//
//   - a table deleted by an in-place merge is represented by the merged
//     table, with the member order inside the merged action standing in
//     for execution order;
//   - cache tables (runtime caches and prepopulated merged caches) are
//     accelerators: their covers remain in the program on the miss path
//     and represent themselves, while the cache's own soundness is
//     checked against the caching/merging legality rules (RW004);
//   - every other node must appear, reachable, under its own name.
//
// A violation yields an Error diagnostic naming the violated edge and its
// witness field. Annotation-only rewrites (memory-tier pinning) pass
// trivially.
func VerifyRewrite(orig, opt *p4ir.Program) diag.List {
	return NewRewriteChecker(orig).verify(opt, nil)
}

// depEdge is one classified dependency edge of the original program: u
// must execute before v because of a kind dependency witnessed by field.
type depEdge struct {
	u, v        string
	kind, field string
}

// RewriteChecker amortizes rewrite verification over many candidate
// rewrites of one original program. Construction performs everything that
// depends only on the original — the structural gate, the dependency
// graph, and the full classified dependency-edge list — so each proof
// only analyzes the candidate program. It reads the original's
// structure and effects, never its table entries, so entry operations
// leave it valid. Safe for concurrent use once built (all precomputed
// state is read-only).
type RewriteChecker struct {
	origDiags int // structural diagnostics count when the original is invalid
	gO        *graph
	edges     []depEdge
}

// NewRewriteChecker precomputes the original program's dependency
// structure.
func NewRewriteChecker(orig *p4ir.Program) *RewriteChecker {
	rc := &RewriteChecker{}
	if sd := orig.StructuralDiagnostics(); sd.HasErrors() {
		rc.origDiags = len(sd)
		return rc
	}
	g := newGraph(orig)
	rc.gO = g
	for u := range int32(g.ix.Len()) {
		for v := range int32(g.ix.Len()) {
			if !g.has(u, v) {
				continue
			}
			if kind, f := g.an.Witness(u, v); kind != deps.DepNone {
				rc.edges = append(rc.edges, depEdge{u: g.ix.Name(u), v: g.ix.Name(v), kind: kind.String(), field: g.an.Field(f)})
			}
		}
	}
	return rc
}

// verify checks a rewrite, with the dependency-edge check optionally
// restricted to edges with at least one endpoint in touched (nil: every
// edge, the result VerifyRewrite(orig, opt) returns) —
// sound when every node the rewrite rewired, deleted, or generated is in
// the set, because an edge between two untouched nodes keeps its original
// wiring and relative order. Node representation (RW001/RW003) and
// declared-transform legality (RW004) are still checked in full; both scan
// only annotated or unreachable nodes, so they are cheap.
func (rc *RewriteChecker) verify(opt *p4ir.Program, touched map[string]bool) diag.List {
	if rc.gO == nil {
		var l diag.List
		l.Add(CodeVerifyInput, diag.Error, "", "",
			"original program is structurally invalid (%d diagnostics); run the structural analyzer on it first", rc.origDiags)
		return l
	}
	if sd := opt.StructuralDiagnostics(); sd.HasErrors() {
		sd.Sort()
		return sd
	}
	gN := newGraph(opt)
	l, rep, coverOrder := representation(rc.gO, gN)
	for _, e := range rc.edges {
		if touched != nil && !touched[e.u] && !touched[e.v] {
			continue
		}
		ru, rv := rep[e.u], rep[e.v]
		if ru == "" || rv == "" {
			continue // RW001 already reported
		}
		if ru == rv {
			// Both ends merged into one table: the combined action
			// executes members in cover order.
			at := func(n string) int { return max(slices.Index(coverOrder[ru], n), 0) }
			if at(e.u) > at(e.v) {
				l.Add(CodeBrokenDep, diag.Error, ru, e.field,
					"%s dependency %s→%s on %q is reversed inside merged table %q", e.kind, e.u, e.v, e.field, ru)
			}
			continue
		}
		switch {
		case gN.before(rv, ru):
			l.Add(CodeBrokenDep, diag.Error, rv, e.field,
				"%s dependency %s→%s on %q is reversed: %q now precedes %q", e.kind, e.u, e.v, e.field, rv, ru)
		case !gN.before(ru, rv):
			l.Add(CodeBrokenDep, diag.Error, ru, e.field,
				"%s dependency %s→%s on %q is lost: no path orders %q before %q", e.kind, e.u, e.v, e.field, ru, rv)
		}
	}
	l = append(l, verifyTransforms(rc.gO, gN)...)
	l.Sort()
	return l
}

// representation maps every reachable original node to the optimized node
// that executes on its behalf, reporting RW001/RW003 inconsistencies.
// coverOrder records, for merged tables, the members in the order the
// combined action executes them.
func representation(gO, gN *graph) (diag.List, map[string]string, map[string][]string) {
	var l diag.List
	rep := map[string]string{}
	coverOrder := map[string][]string{}

	for _, id := range gN.ix.Tables() {
		name, t := gN.ix.Name(id), gN.ix.Table(id)
		kind := t.Annotations[p4ir.AnnotKind]
		if kind == "" {
			continue
		}
		covers := strings.Split(t.Annotations[p4ir.AnnotCovers], ",")
		switch kind {
		case p4ir.KindMerged:
			for _, c := range covers {
				if _, ok := gO.prog.Tables[c]; !ok {
					l.Add(CodeBadCovers, diag.Error, name, "",
						"merged table covers %q, which is not a table in the original program", c)
					continue
				}
				if gN.reachable(c) {
					l.Add(CodeBadCovers, diag.Error, name, "",
						"table %q is merged into %q but still executes in the optimized program", c, name)
				}
				if prev, dup := rep[c]; dup {
					l.Add(CodeBadCovers, diag.Error, name, "",
						"table %q is covered by both %q and %q", c, prev, name)
					continue
				}
				rep[c] = name
			}
			coverOrder[name] = covers
		case p4ir.KindCache, p4ir.KindMergedCache:
			for _, c := range covers {
				if _, ok := gO.prog.Tables[c]; !ok {
					l.Add(CodeBadCovers, diag.Error, name, "",
						"cache covers %q, which is not a table in the original program", c)
					continue
				}
				if !gN.reachable(c) {
					l.Add(CodeBadCovers, diag.Error, name, "",
						"cache cover %q has no reachable miss path in the optimized program", c)
				}
			}
		}
	}
	// Surviving nodes represent themselves.
	for _, id := range gO.ix.Topo() {
		name := gO.ix.Name(id)
		if _, mapped := rep[name]; mapped {
			continue
		}
		if gN.reachable(name) {
			rep[name] = name
			continue
		}
		l.Add(CodeLostNode, diag.Error, name, "",
			"original node is dropped or unreachable in the optimized program")
	}
	return l, rep, coverOrder
}

// verifyTransforms re-proves each declared rewrite's own legality rule
// (RW004): caches against the caching conditions, merged tables against
// the merging conditions evaluated on the original program (the members
// no longer exist in the optimized one).
func verifyTransforms(gO, gN *graph) diag.List {
	var l diag.List
	for _, id := range gN.ix.Tables() {
		name, t := gN.ix.Name(id), gN.ix.Table(id)
		switch t.Annotations[p4ir.AnnotKind] {
		case p4ir.KindCache, p4ir.KindMergedCache:
			if spec, ok := t.CacheMeta(); ok {
				for _, d := range cacheSpecDiags(gN, spec) {
					if d.Severity == diag.Error {
						l.Add(CodeUnsoundXform, diag.Error, d.Node, d.Field, "%s", d.Message)
					}
				}
			}
		case p4ir.KindMerged:
			covers := strings.Split(t.Annotations[p4ir.AnnotCovers], ",")
			l = append(l, mergeDiags(gO, name, covers)...)
		}
		l = append(l, tierDiags(name, t)...)
	}
	return l
}

// tierDiags checks a table's execution-tier placement annotations
// (RW005–RW007): the assigned tier must not undercut the table's floor,
// a floored or sticky table must not be replicated across tiers (a
// replica runs on every tier a packet may arrive from, including the
// ones the floor forbids; sticky state cannot be kept coherent across
// instances), and the annotation value must parse.
func tierDiags(name string, t *p4ir.Table) diag.List {
	var l diag.List
	if v, ok := t.Annotations[p4ir.AnnotTier]; ok {
		tier, valid := t.TierAssignment()
		if !valid {
			l.Add(CodeBadTier, diag.Error, name, "",
				"malformed tier annotation %q: want a non-negative integer", v)
		} else if floor := t.TierFloor(); tier < floor {
			l.Add(CodeTierFloor, diag.Error, name, "",
				"assigned to tier %d below its floor %d", tier, floor)
		}
	}
	if t.TierCopied() {
		if floor := t.TierFloor(); floor > 0 {
			l.Add(CodeTierFloor, diag.Error, name, "",
				"replicated across tiers despite floor %d (a replica must run on every tier)", floor)
		}
		if t.Sticky {
			l.Add(CodeStickyCopied, diag.Error, name, "",
				"sticky table replicated across tiers; its state cannot be kept coherent")
		}
	}
	return l
}

// mergeDiags checks the in-place merge legality of a cover list against
// the original program's effects: no switch-case member, no non-final
// dropping member, and no member writing a field a later member reads.
func mergeDiags(gO *graph, name string, covers []string) diag.List {
	var l diag.List
	for i, u := range covers {
		eu := gO.effects(u)
		if _, ok := gO.prog.Tables[u]; !ok {
			continue // RW003 already reported
		}
		if eu.SwitchCase {
			l.Add(CodeUnsoundXform, diag.Error, name, "",
				"merged member %q is switch-case; a merged table has a single successor", u)
		}
		if eu.Drops && i != len(covers)-1 {
			l.Add(CodeUnsoundXform, diag.Error, name, "",
				"merged member %q can drop before later member %q", u, covers[len(covers)-1])
		}
		for j := i + 1; j < len(covers); j++ {
			v := covers[j]
			if _, ok := gO.prog.Tables[v]; !ok {
				continue
			}
			if f := gO.an.Field(eu.Writes.First(gO.effects(v).Reads)); f != "" {
				l.Add(CodeUnsoundXform, diag.Error, name, f,
					"merged member %q writes %q, read by later member %q", u, f, v)
			}
		}
	}
	return l
}
