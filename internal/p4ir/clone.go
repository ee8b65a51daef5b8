package p4ir

import (
	"maps"
	"slices"
	"sync/atomic"
)

// Clone returns a copy of the program whose graph — every table's header,
// keys, action list, ActionNext and Annotations, every conditional — is
// its own, and whose entries and actions are shared with p: they are
// values no one writes in place. The optimizer transforms clones so that
// the original layout survives for plan reversal and for the counter map
// that links optimized programs back to their originals; an entry
// operation on either side copies the table's entry array before its first
// write (ownEntries), so it never shows in the other. Concurrent clones of
// one program are safe.
func (p *Program) Clone() *Program {
	out := NewProgram(p.Name)
	out.Root = p.Root
	for name, t := range p.Tables {
		out.Tables[name] = t.clone()
	}
	for name, c := range p.Conds {
		out.Conds[name] = c.clone()
	}
	return out
}

// clone returns a copy of the table's header that shares its entry array
// and actions, and marks the array shared.
func (t *Table) clone() *Table {
	nt := *t
	nt.Keys, nt.Actions, nt.Entries = slices.Clone(t.Keys), slices.Clone(t.Actions), slices.Clip(t.Entries)
	nt.ActionNext, nt.Annotations = maps.Clone(t.ActionNext), maps.Clone(t.Annotations)
	if o := t.own; o != nil && !o.shared.Load() {
		o.shared.Store(true)
	}
	return &nt
}

// ownership is what a table knows of the entry array it copied for an
// entry operation: whether a clone has shared it since. Clone only ever
// sets the flag, so concurrent clones of one program do not race.
type ownership struct{ shared atomic.Bool }

// ownEntries makes t's entry array its own before an entry operation (or
// its undo) writes it. A table whose array a clone may share, or that
// cannot tell (it was decoded, built or constructed), copies the array
// once; from then on it writes in place, until it is cloned again.
func (t *Table) ownEntries() {
	if t.own != nil && !t.own.shared.Load() {
		return
	}
	t.Entries, t.own = slices.Clone(t.Entries), &ownership{}
}

// Clone returns a deep copy of the entry.
func (e Entry) Clone() Entry {
	e.Match, e.Args = slices.Clone(e.Match), slices.Clone(e.Args)
	return e
}

// clone returns a deep copy of the conditional.
func (c *Conditional) clone() *Conditional {
	cc := *c
	cc.ReadFields = slices.Clone(c.ReadFields)
	return &cc
}
