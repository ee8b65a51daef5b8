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
	"math/bits"
	"slices"

	"pipeleon/internal/p4ir"
)

// Fields is a set of fields as a bitset: bit f stands for field f of one
// Analyzer's numbering. Fields are numbered in name order, so the lowest
// bit two sets share is their lexicographically first common field.
type Fields []uint64

// Has reports whether field f is in the set.
func (s Fields) Has(f int) bool { return f >= 0 && f>>6 < len(s) && s[f>>6]&(1<<(f&63)) != 0 }

// First returns the lowest-numbered field in both sets — the
// lexicographically first by name — or -1 when they are disjoint.
func (s Fields) First(o Fields) int {
	for w := range min(len(s), len(o)) {
		if both := s[w] & o[w]; both != 0 {
			return w<<6 + bits.TrailingZeros64(both)
		}
	}
	return -1
}

// Next returns the lowest field in the set numbered f or above, -1 when
// there is none: for f := s.Next(0); f >= 0; f = s.Next(f + 1) visits the
// set in name order.
func (s Fields) Next(f int) int {
	for w := f >> 6; w < len(s); w, f = w+1, 0 {
		if word := s[w] &^ (1<<(f&63) - 1); word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// Effects summarizes one node's dataflow behaviour. A conditional reads
// its expression's fields and does nothing else.
type Effects struct {
	// Reads are the fields the table's match keys and action operands read.
	Reads Fields
	// KeyReads are just the match-key fields (subset of Reads); caching
	// legality cares specifically about these.
	KeyReads Fields
	// Writes are the fields the table's actions may write.
	Writes Fields
	// Drops reports whether any action can drop the packet.
	Drops bool
	// SwitchCase reports whether the table picks its successor per action.
	SwitchCase bool
}

// Analyzer holds the effects of every node of one program, by the node
// IDs of its index, over one numbering of the fields its tables and
// conditionals read or write.
type Analyzer struct {
	fields  []string         // field number → name, ascending
	nums    map[string]int32 // name → field number
	effects []Effects        // by node ID
}

// NewAnalyzer builds an analyzer over prog, numbering its nodes with a
// fresh index.
func NewAnalyzer(prog *p4ir.Program) *Analyzer { return New(p4ir.NewIndex(prog)) }

// New builds an analyzer over the program ix indexes: its node IDs are
// ix's.
func New(ix *p4ir.Index) *Analyzer {
	// One pass notes each field occurrence as (set, field number in order
	// of first sight); renumbering by name then sets the bits. Node id's
	// sets are 3*id+reads, +keyReads and +writes.
	const reads, keyReads, writes = 0, 1, 2
	type use struct{ set, first int32 }
	a := &Analyzer{nums: make(map[string]int32, 2*ix.Len()), effects: make([]Effects, ix.Len())}
	var uses []use
	note := func(id int32, f string, sets ...int32) {
		n, ok := a.nums[f]
		if !ok {
			n = int32(len(a.fields))
			a.nums[f] = n
			a.fields = append(a.fields, f)
		}
		for _, set := range sets {
			uses = append(uses, use{3*id + set, n})
		}
	}
	for id := range int32(ix.Len()) {
		if c := ix.Cond(id); c != nil {
			for _, f := range c.ReadFields {
				note(id, f, reads)
			}
			continue
		}
		t, e := ix.Table(id), &a.effects[id]
		e.SwitchCase = t.IsSwitchCase()
		for _, k := range t.Keys {
			note(id, k.Field, reads, keyReads)
		}
		for _, act := range t.Actions {
			for _, p := range act.Primitives {
				in := p.Decode()
				if in.Kind == p4ir.PrimDrop {
					e.Drops = true
					break // nothing after a drop runs
				}
				for _, o := range in.Src {
					if o.Kind == p4ir.OperandField {
						note(id, o.Field, reads)
					}
				}
				if in.Dst != "" {
					note(id, in.Dst, writes)
				}
			}
		}
	}
	rank := make([]int32, len(a.fields)) // first-sight number → name rank
	slices.Sort(a.fields)
	for r, f := range a.fields {
		rank[a.nums[f]], a.nums[f] = int32(r), int32(r)
	}
	words := (len(a.fields) + 63) / 64
	sets := make([]uint64, 3*words*ix.Len())
	for _, u := range uses {
		f := rank[u.first]
		sets[int(u.set)*words+int(f>>6)] |= 1 << (f & 63)
	}
	for id := range a.effects {
		row := func(set int) Fields { return sets[(3*id+set)*words : (3*id+set+1)*words : (3*id+set+1)*words] }
		a.effects[id].Reads, a.effects[id].KeyReads, a.effects[id].Writes = row(reads), row(keyReads), row(writes)
	}
	return a
}

// Effects returns node id's effects; the zero value for -1, the ID of no
// node.
func (a *Analyzer) Effects(id int32) Effects {
	if id < 0 {
		return Effects{}
	}
	return a.effects[id]
}

// Field returns field f's name, "" for -1 (no field).
func (a *Analyzer) Field(f int) string {
	if f < 0 {
		return ""
	}
	return a.fields[f]
}

// FieldNum returns the named field's number, -1 when no node touches it.
func (a *Analyzer) FieldNum(name string) int {
	if n, ok := a.nums[name]; ok {
		return int(n)
	}
	return -1
}

// NumFields returns how many fields are numbered (0..NumFields()-1).
func (a *Analyzer) NumFields() int { return len(a.fields) }

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

// Dependency returns the strongest dependency from earlier node u to later
// node v (RAW > WAW > WAR > none).
func (a *Analyzer) Dependency(u, v int32) DependencyKind {
	kind, _ := a.Witness(u, v)
	return kind
}

// Witness is Dependency plus the lexicographically first field that
// witnesses it, -1 for DepNone.
func (a *Analyzer) Witness(u, v int32) (DependencyKind, int) {
	eu, ev := a.Effects(u), a.Effects(v)
	if f := eu.Writes.First(ev.Reads); f >= 0 {
		return DepRAW, f
	}
	if f := eu.Writes.First(ev.Writes); f >= 0 {
		return DepWAW, f
	}
	if f := eu.Reads.First(ev.Writes); f >= 0 {
		return DepWAR, f
	}
	return DepNone, -1
}

// ValidOrder reports whether the proposed permutation of a table sequence
// preserves every pairwise dependency of the original order: whenever
// original order has u before v with a dependency u→v, the permutation
// must also place u before v.
func (a *Analyzer) ValidOrder(original, proposed []int32) bool {
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
func (a *Analyzer) CanMerge(span []int32) bool {
	if len(span) < 2 {
		return false
	}
	for i, u := range span {
		e := a.Effects(u)
		if e.SwitchCase {
			return false
		}
		if e.Drops && i != len(span)-1 {
			return false
		}
		for _, v := range span[i+1:] {
			if e.Writes.First(a.Effects(v).Reads) >= 0 {
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
func (a *Analyzer) CanCache(span []int32) bool {
	if len(span) == 0 {
		return false
	}
	for i, u := range span {
		e := a.Effects(u)
		if e.SwitchCase {
			return false
		}
		for _, v := range span[i+1:] {
			if e.Writes.First(a.Effects(v).KeyReads) >= 0 {
				return false
			}
		}
	}
	return true
}

// CacheKey returns the union of match-key fields over a span, in name
// order — the key of a covering flow cache. The cross-product risk of a
// cache grows with the size of this union (§3.2.2).
func (a *Analyzer) CacheKey(span []int32) []string {
	union := func(w int) (word uint64) {
		for _, u := range span {
			if kr := a.Effects(u).KeyReads; w < len(kr) {
				word |= kr[w]
			}
		}
		return word
	}
	words, n := (len(a.fields)+63)/64, 0
	for w := range words {
		n += bits.OnesCount64(union(w))
	}
	out := make([]string, 0, n)
	for w := range words {
		for word := union(w); word != 0; word &= word - 1 {
			out = append(out, a.fields[w<<6+bits.TrailingZeros64(word)])
		}
	}
	return out
}
