package p4c

import (
	"fmt"
	"strconv"

	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
)

// Compile parses and lowers P4 subset source into a p4ir program named
// after the control block.
func Compile(src string) (*p4ir.Program, error) {
	f, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return lower(f)
}

// lower converts a parsed File to the graph IR: sequential applies chain
// through BaseNext, if/else becomes a Conditional with a join, and a
// switch-on-apply becomes a switch-case table whose ActionNext routes per
// action, falling through to the join for actions without a case.
func lower(f *File) (*p4ir.Program, error) {
	l := &lowerer{
		f:       f,
		prog:    p4ir.NewProgram(f.Control.Name),
		actions: map[string]*ActionDecl{},
		tables:  map[string]*TableDecl{},
		applied: map[string]bool{},
	}
	for _, a := range f.Actions {
		if _, dup := l.actions[a.Name]; dup {
			return nil, fmt.Errorf("p4c: duplicate action %q", a.Name)
		}
		l.actions[a.Name] = a
	}
	for _, t := range f.Tables {
		if _, dup := l.tables[t.Name]; dup {
			return nil, fmt.Errorf("p4c: duplicate table %q", t.Name)
		}
		l.tables[t.Name] = t
	}
	// Materialize every declared table (even unapplied ones are lowered,
	// so the control plane can address them; they stay unreachable).
	for _, t := range f.Tables {
		irTable, err := l.lowerTable(t)
		if err != nil {
			return nil, err
		}
		l.prog.Tables[t.Name] = irTable
	}
	root, err := l.lowerStmts(f.Control.Body, "")
	if err != nil {
		return nil, err
	}
	l.prog.Root = root
	if err := l.prog.Validate(); err != nil {
		return nil, fmt.Errorf("p4c: lowered program invalid: %w", err)
	}
	return l.prog, nil
}

type lowerer struct {
	f       *File
	prog    *p4ir.Program
	actions map[string]*ActionDecl
	tables  map[string]*TableDecl
	applied map[string]bool
	condSeq int
}

// lowerTable converts one table declaration.
func (l *lowerer) lowerTable(t *TableDecl) (*p4ir.Table, error) {
	out := &p4ir.Table{Name: t.Name, MaxEntries: t.Size}
	for _, k := range t.Keys {
		kind, err := p4ir.ParseMatchKind(k.Kind)
		if err != nil {
			return nil, fmt.Errorf("p4c: table %q key %q: %v", t.Name, k.Field, err)
		}
		out.Keys = append(out.Keys, p4ir.Key{
			Field: k.Field, Kind: kind, Width: packet.FieldWidth(k.Field),
		})
	}
	if len(t.Actions) == 0 {
		return nil, fmt.Errorf("p4c: table %q has no actions", t.Name)
	}
	for _, name := range t.Actions {
		decl, ok := l.actions[name]
		if !ok {
			return nil, fmt.Errorf("p4c: table %q references undefined action %q", t.Name, name)
		}
		out.Actions = append(out.Actions, lowerAction(decl))
	}
	out.DefaultAction = t.Default
	if out.DefaultAction == "" {
		out.DefaultAction = t.Actions[len(t.Actions)-1]
	}
	if out.Action(out.DefaultAction) == nil {
		return nil, fmt.Errorf("p4c: table %q default_action %q not in actions", t.Name, out.DefaultAction)
	}
	for _, e := range t.Entries {
		entry, err := lowerEntry(out, e)
		if err != nil {
			return nil, fmt.Errorf("p4c: table %q line %d: %v", t.Name, e.Line, err)
		}
		out.Entries = append(out.Entries, entry)
	}
	return out, nil
}

// lowerEntry converts one const-entries row, validating arity and action.
func lowerEntry(t *p4ir.Table, e EntryDecl) (p4ir.Entry, error) {
	var out p4ir.Entry
	if len(e.Matches) != len(t.Keys) {
		return out, fmt.Errorf("entry has %d match values for %d keys", len(e.Matches), len(t.Keys))
	}
	if t.Action(e.Action) == nil {
		return out, fmt.Errorf("entry action %q not in table actions", e.Action)
	}
	out.Action = e.Action
	out.Args = e.Args
	out.Priority = e.Prio
	for i, m := range e.Matches {
		v, err := parseNum(m.Value)
		if err != nil {
			return out, fmt.Errorf("match value %q: %v", m.Value, err)
		}
		mv := p4ir.MatchValue{Value: v}
		switch {
		case m.Prefix != "":
			if t.Keys[i].Kind != p4ir.MatchLPM {
				return out, fmt.Errorf("prefix match on non-lpm key %q", t.Keys[i].Field)
			}
			p, err := parseNum(m.Prefix)
			if err != nil {
				return out, fmt.Errorf("prefix length %q: %v", m.Prefix, err)
			}
			mv.PrefixLen = int(p)
		case m.Mask != "":
			if t.Keys[i].Kind != p4ir.MatchTernary && t.Keys[i].Kind != p4ir.MatchRange {
				return out, fmt.Errorf("mask match on non-ternary key %q", t.Keys[i].Field)
			}
			mask, err := parseNum(m.Mask)
			if err != nil {
				return out, fmt.Errorf("mask %q: %v", m.Mask, err)
			}
			mv.Mask = mask
		default:
			switch t.Keys[i].Kind {
			case p4ir.MatchLPM:
				mv.PrefixLen = t.Keys[i].BitWidth() // bare value = host route
			case p4ir.MatchTernary, p4ir.MatchRange:
				mv.Mask = t.Keys[i].FullMask() // bare value = exact-as-ternary
			}
		}
		out.Match = append(out.Match, mv)
	}
	return out, nil
}

func parseNum(s string) (uint64, error) {
	return strconv.ParseUint(s, 0, 64) // base prefix aware (0x, 0b, 0o)
}

// lowerAction converts an action declaration, rewriting references to the
// action's parameters into "$i" action-data placeholders resolved from
// entry arguments at runtime.
func lowerAction(a *ActionDecl) *p4ir.Action {
	paramIdx := map[string]int{}
	for i, p := range a.Params {
		paramIdx[p] = i
	}
	out := &p4ir.Action{Name: a.Name}
	for _, s := range a.Stmts {
		args := make([]string, len(s.Args))
		for i, arg := range s.Args {
			if idx, ok := paramIdx[arg]; ok {
				args[i] = fmt.Sprintf("$%d", idx)
			} else {
				args[i] = arg
			}
		}
		op := s.Op
		if op == "mark_to_drop" {
			op = "drop"
		}
		out.Primitives = append(out.Primitives, p4ir.Primitive{Op: op, Args: args})
	}
	if len(out.Primitives) == 0 {
		out.Primitives = []p4ir.Primitive{{Op: "no_op"}}
	}
	return out
}

// lowerStmts lowers a statement list whose control flow continues at
// `next` afterwards, returning the entry node name ("" if the list is
// empty — flow goes straight to next).
func (l *lowerer) lowerStmts(stmts []Stmt, next string) (string, error) {
	entry := next
	// Process back to front so each statement knows its successor.
	for i := len(stmts) - 1; i >= 0; i-- {
		var err error
		entry, err = l.lowerStmt(stmts[i], entry)
		if err != nil {
			return "", err
		}
	}
	return entry, nil
}

func (l *lowerer) lowerStmt(s Stmt, next string) (string, error) {
	switch st := s.(type) {
	case *ApplyStmt:
		t, ok := l.prog.Tables[st.Table]
		if !ok {
			return "", fmt.Errorf("p4c: line %d: apply of undefined table %q", st.Line, st.Table)
		}
		if l.applied[st.Table] {
			return "", fmt.Errorf("p4c: line %d: table %q applied more than once", st.Line, st.Table)
		}
		l.applied[st.Table] = true
		t.BaseNext = next
		return st.Table, nil

	case *IfStmt:
		thenEntry, err := l.lowerStmts(st.Then, next)
		if err != nil {
			return "", err
		}
		elseEntry, err := l.lowerStmts(st.Else, next)
		if err != nil {
			return "", err
		}
		l.condSeq++
		name := fmt.Sprintf("cond_%d", l.condSeq)
		l.prog.Conds[name] = &p4ir.Conditional{
			Name:       name,
			Expr:       fmt.Sprintf("%s %s %s", st.Field, st.Op, st.Value),
			TrueNext:   thenEntry,
			FalseNext:  elseEntry,
			ReadFields: []string{st.Field},
		}
		return name, nil

	case *SwitchStmt:
		t, ok := l.prog.Tables[st.Table]
		if !ok {
			return "", fmt.Errorf("p4c: line %d: switch applies undefined table %q", st.Line, st.Table)
		}
		if l.applied[st.Table] {
			return "", fmt.Errorf("p4c: line %d: table %q applied more than once", st.Line, st.Table)
		}
		l.applied[st.Table] = true
		defEntry := next
		if st.HasDef {
			var err error
			defEntry, err = l.lowerStmts(st.Default, next)
			if err != nil {
				return "", err
			}
		}
		t.BaseNext = defEntry
		t.ActionNext = map[string]string{}
		for _, c := range st.Cases {
			if t.Action(c.Action) == nil {
				return "", fmt.Errorf("p4c: line %d: switch case %q is not an action of table %q",
					st.Line, c.Action, st.Table)
			}
			caseEntry, err := l.lowerStmts(c.Body, next)
			if err != nil {
				return "", err
			}
			t.ActionNext[c.Action] = caseEntry
		}
		return st.Table, nil
	}
	return "", fmt.Errorf("p4c: unknown statement %T", s)
}
