package p4ir

// Clone returns a deep copy of the program. The optimizer transforms
// clones so that the original layout survives for plan reversal and for
// the counter map that links optimized programs back to their originals.
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

// clone returns a deep copy of the table.
func (t *Table) clone() *Table {
	nt := &Table{
		Name:          t.Name,
		Keys:          append([]Key(nil), t.Keys...),
		DefaultAction: t.DefaultAction,
		BaseNext:      t.BaseNext,
		MaxEntries:    t.MaxEntries,
		Unsupported:   t.Unsupported,
		MinTier:       t.MinTier,
		Sticky:        t.Sticky,
	}
	nt.Actions = make([]*Action, len(t.Actions))
	for i, a := range t.Actions {
		nt.Actions[i] = a.clone()
	}
	if t.ActionNext != nil {
		nt.ActionNext = make(map[string]string, len(t.ActionNext))
		for k, v := range t.ActionNext {
			nt.ActionNext[k] = v
		}
	}
	if t.Annotations != nil {
		nt.Annotations = make(map[string]string, len(t.Annotations))
		for k, v := range t.Annotations {
			nt.Annotations[k] = v
		}
	}
	nt.Entries = make([]Entry, len(t.Entries))
	for i, e := range t.Entries {
		nt.Entries[i] = e.Clone()
	}
	return nt
}

// clone returns a deep copy of the action.
func (a *Action) clone() *Action {
	na := &Action{Name: a.Name, Primitives: make([]Primitive, len(a.Primitives))}
	for i, prim := range a.Primitives {
		na.Primitives[i] = Primitive{Op: prim.Op, Args: append([]string(nil), prim.Args...)}
	}
	return na
}

// Clone returns a deep copy of the entry.
func (e Entry) Clone() Entry {
	return Entry{
		Priority: e.Priority,
		Match:    append([]MatchValue(nil), e.Match...),
		Action:   e.Action,
		Args:     append([]string(nil), e.Args...),
	}
}

// clone returns a deep copy of the conditional.
func (c *Conditional) clone() *Conditional {
	return &Conditional{
		Name:       c.Name,
		Expr:       c.Expr,
		TrueNext:   c.TrueNext,
		FalseNext:  c.FalseNext,
		ReadFields: append([]string(nil), c.ReadFields...),
	}
}
