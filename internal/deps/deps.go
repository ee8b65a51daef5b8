// Package deps implements the table dependency analysis that keeps
// Pipeleon's transformations semantics-preserving (§3.2: "These techniques
// transform the code into more efficient implementations while preserving
// the program semantics by table dependency analysis [34]").
//
// Each table has a read set (its match-key fields plus the source operands
// of its actions) and a write set (the destination fields of its actions).
// Two tables have a dependency if their sets intersect in the classic
// read-after-write, write-after-read, or write-after-write patterns. Only
// dependency-free tables may be reordered, and only dependency-free spans
// may be merged or cached as a unit.
package deps

import (
	"slices"
	"sort"

	"pipeleon/internal/p4ir"
)

// FieldSet is a set of header field names.
type FieldSet map[string]bool

// Add inserts fields into the set.
func (s FieldSet) Add(fields ...string) {
	for _, f := range fields {
		s[f] = true
	}
}

// Intersects reports whether the two sets share a field.
func (s FieldSet) Intersects(o FieldSet) bool {
	// Iterate the smaller set.
	if len(o) < len(s) {
		s, o = o, s
	}
	for f := range s {
		if o[f] {
			return true
		}
	}
	return false
}

// Sorted returns the fields in lexicographic order (for stable output).
func (s FieldSet) Sorted() []string {
	out := make([]string, 0, len(s))
	for f := range s {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// Effects summarizes one table's dataflow behaviour.
type Effects struct {
	// Reads are the fields the table's match keys and action operands read.
	Reads FieldSet
	// KeyReads are just the match-key fields (subset of Reads); caching
	// legality cares specifically about these.
	KeyReads FieldSet
	// Writes are the fields the table's actions may write.
	Writes FieldSet
	// Drops reports whether any action can drop the packet.
	Drops bool
	// SwitchCase reports whether the table picks its successor per action.
	SwitchCase bool
}

// TableEffects computes the Effects of a single table.
func TableEffects(t *p4ir.Table) Effects {
	e := Effects{
		Reads:      FieldSet{},
		KeyReads:   FieldSet{},
		Writes:     FieldSet{},
		Drops:      t.HasDropAction(),
		SwitchCase: t.IsSwitchCase(),
	}
	for _, k := range t.Keys {
		e.Reads.Add(k.Field)
		e.KeyReads.Add(k.Field)
	}
	for _, a := range t.Actions {
		e.Reads.Add(a.ReadSet()...)
		e.Writes.Add(a.WriteSet()...)
	}
	return e
}

// Analyzer caches per-table effects for a program.
type Analyzer struct {
	prog    *p4ir.Program
	effects map[string]Effects
}

// NewAnalyzer builds an analyzer over prog.
func NewAnalyzer(prog *p4ir.Program) *Analyzer {
	a := &Analyzer{prog: prog, effects: make(map[string]Effects, len(prog.Tables))}
	for name, t := range prog.Tables {
		a.effects[name] = TableEffects(t)
	}
	return a
}

// Effects returns the cached effects of a table (zero value for unknown).
func (a *Analyzer) Effects(table string) Effects { return a.effects[table] }

// DependencyKind classifies a dependency between an earlier table A and a
// later table B.
type DependencyKind int

const (
	// DepNone means A and B are independent.
	DepNone DependencyKind = iota
	// DepRAW: A writes a field B reads.
	DepRAW
	// DepWAR: A reads a field B writes.
	DepWAR
	// DepWAW: A and B write the same field.
	DepWAW
)

var depNames = [...]string{"none", "read-after-write", "write-after-read", "write-after-write"}

// String returns the dependency kind name.
func (k DependencyKind) String() string { return depNames[k] }

// Dependency returns the strongest dependency from earlier table a to later
// table b (RAW > WAW > WAR > none).
func (a *Analyzer) Dependency(earlier, later string) DependencyKind {
	ea, eb := a.effects[earlier], a.effects[later]
	if ea.Writes.Intersects(eb.Reads) {
		return DepRAW
	}
	if ea.Writes.Intersects(eb.Writes) {
		return DepWAW
	}
	if ea.Reads.Intersects(eb.Writes) {
		return DepWAR
	}
	return DepNone
}

// Independent reports whether two tables have no dependency in either
// direction, the precondition for swapping their order (§3.2.1: reordering
// "alters the table sequence when there are no dependencies across these
// tables").
func (a *Analyzer) Independent(x, y string) bool {
	return a.Dependency(x, y) == DepNone && a.Dependency(y, x) == DepNone
}

// ValidOrder reports whether the proposed permutation of a table sequence
// preserves every pairwise dependency of the original order: whenever
// original order has u before v with a dependency u→v, the permutation
// must also place u before v.
func (a *Analyzer) ValidOrder(original, proposed []string) bool {
	if len(original) != len(proposed) {
		return false
	}
	for i, u := range original {
		pu := slices.Index(proposed, u)
		if pu < 0 {
			return false
		}
		for _, v := range original[i+1:] {
			if a.Dependency(u, v) != DepNone && slices.Index(proposed, v) < pu {
				return false
			}
		}
	}
	return true
}

// CanMerge reports whether a consecutive run of tables can be merged into
// one table performing all their actions with a single key match (§3.2.3).
// Requirements:
//
//   - no table in the span is switch-case (the merged table has a single
//     successor),
//   - no earlier table writes a field a later table matches on or reads
//     (the merged match happens once, against the packet as it entered),
//   - no earlier table drops: a drop mid-span would suppress the later
//     tables' actions, which a single merged action cannot express for
//     partially matching packets (the final table may drop).
func (a *Analyzer) CanMerge(span []string) bool {
	if len(span) < 2 {
		return false
	}
	for i, name := range span {
		e := a.effects[name]
		if e.SwitchCase {
			return false
		}
		if e.Drops && i != len(span)-1 {
			return false
		}
		for j := i + 1; j < len(span); j++ {
			if e.Writes.Intersects(a.effects[span[j]].Reads) {
				return false
			}
		}
	}
	return true
}

// CanCache reports whether a consecutive run of tables can be covered by a
// flow cache keyed on the union of their match fields (§3.2.2). The cached
// result must be a pure function of the packet as it enters the span, so
// no table in the span may write a field that a later table in the span
// matches on. Tables with drop actions can be cached (the cache records
// the drop verdict). Switch-case tables cannot: their successor varies per
// packet, so a single cache-hit fast path cannot reproduce the control
// flow.
func (a *Analyzer) CanCache(span []string) bool {
	if len(span) == 0 {
		return false
	}
	for i, name := range span {
		e := a.effects[name]
		if e.SwitchCase {
			return false
		}
		for j := i + 1; j < len(span); j++ {
			if e.Writes.Intersects(a.effects[span[j]].KeyReads) {
				return false
			}
		}
	}
	return true
}

// CacheKey returns the union of match-key fields over a span — the key of
// a covering flow cache. The cross-product risk of a cache grows with the
// size of this union (§3.2.2).
func (a *Analyzer) CacheKey(span []string) []string {
	set := FieldSet{}
	for _, name := range span {
		for f := range a.effects[name].KeyReads {
			set[f] = true
		}
	}
	return set.Sorted()
}
