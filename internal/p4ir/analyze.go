package p4ir

import (
	"slices"
	"sort"

	"pipeleon/internal/diag"
)

// Structural rule codes. Each corresponds to one of the invariants
// Validate has always enforced; StructuralDiagnostics reports all
// violations in one pass instead of stopping at the first.
const (
	CodeNoRoot         = "P4S01" // program has nodes but no root
	CodeDanglingRef    = "P4S02" // edge references a missing node
	CodeCycle          = "P4S03" // reachable graph has a cycle
	CodeBadDefault     = "P4S04" // default action not in action list
	CodeDupNode        = "P4S05" // name is both a table and a conditional
	CodeBadEntry       = "P4S06" // entry refused by Table.CheckEntry
	CodeBadActionNext  = "P4S07" // switch-case references unknown action
	CodeNameMismatch   = "P4S08" // map key differs from node name
	CodeUndeclaredRead = "P4S09" // compared field missing from ReadFields
	CodeEmptyName      = "P4S10" // a node is named "", the sink's spelling
	CodeDupAction      = "P4S11" // a table holds two actions of one name
)

// StructuralDiagnostics checks structural well-formedness of the program
// and returns every violation found, in deterministic order:
//
//   - a root exists and names a real node,
//   - every successor reference resolves ("" means sink),
//   - the reachable graph is acyclic (run-to-completion programs are DAGs),
//   - every table's default action and switch-case action labels exist,
//   - no table holds two actions of one name, so a name means one action
//     to every reader (Table.Action, an entry, the emulator),
//   - every entry is well-formed (Table.CheckEntry),
//   - no name is both a table and a conditional,
//   - every map key equals its node's Name field,
//   - a comparison's field is among its conditional's ReadFields, the
//     read set the dependency analysis sees,
//   - no node is named "", which every edge reads as the sink.
//
// All structural diagnostics have Error severity: a program violating any
// of them cannot be deployed or analyzed further.
func (p *Program) StructuralDiagnostics() diag.List {
	var l diag.List
	if p.Root == "" {
		if p.NumNodes() == 0 {
			return nil // empty program is trivially valid
		}
		l.Add(CodeNoRoot, diag.Error, "", "", "program has %d nodes but no root", p.NumNodes())
		return l
	}
	if !p.Has(p.Root) {
		l.Add(CodeDanglingRef, diag.Error, p.Root, "", "root %q names no node", p.Root)
	}
	if p.Has("") {
		l.Add(CodeEmptyName, diag.Error, "", "", `a node is named "", which every edge reads as the sink`)
	}

	ix := NewIndex(p)
	for _, id := range ix.Tables() {
		if _, dup := p.Conds[ix.Name(id)]; dup {
			l.Add(CodeDupNode, diag.Error, ix.Name(id), "", "%q is both a table and a conditional", ix.Name(id))
		}
	}
	for _, id := range ix.Tables() {
		name, t := ix.Name(id), ix.Table(id)
		if t.Name != name {
			l.Add(CodeNameMismatch, diag.Error, name, "", "table map key %q != table name %q", name, t.Name)
		}
		if t.DefaultAction != "" && t.Action(t.DefaultAction) == nil {
			l.Add(CodeBadDefault, diag.Error, name, "", "default action %q not in action list", t.DefaultAction)
		}
		acts := make([]string, 0, len(t.ActionNext))
		for act := range t.ActionNext {
			acts = append(acts, act)
		}
		sort.Strings(acts)
		for _, act := range acts {
			if t.Action(act) == nil {
				l.Add(CodeBadActionNext, diag.Error, name, "", "switch-case references unknown action %q", act)
			}
			if nxt := t.ActionNext[act]; nxt != "" && !p.Has(nxt) {
				l.Add(CodeDanglingRef, diag.Error, name, "", "switch-case %q -> missing node %q", act, nxt)
			}
		}
		if t.BaseNext != "" && !p.Has(t.BaseNext) {
			l.Add(CodeDanglingRef, diag.Error, name, "", "next -> missing node %q", t.BaseNext)
		}
		params := make([]int, 0, 8) // NumParams by action: once per table, not per entry
		for i, a := range t.Actions {
			params = append(params, a.NumParams())
			if slices.ContainsFunc(t.Actions[:i], func(b *Action) bool { return b.Name == a.Name }) {
				l.Add(CodeDupAction, diag.Error, name, "", "action %d repeats the name %q", i, a.Name)
			}
		}
		for i := range t.Entries {
			if field, msg := t.entryFault(&t.Entries[i], params); msg != "" {
				l.Add(CodeBadEntry, diag.Error, name, field, "entry %d %s", i, msg)
			}
		}
	}
	for _, id := range ix.Conds() {
		name, c := ix.Name(id), ix.Cond(id)
		if c.Name != name {
			l.Add(CodeNameMismatch, diag.Error, name, "", "conditional map key %q != name %q", name, c.Name)
		}
		for _, nxt := range []string{c.TrueNext, c.FalseNext} {
			if nxt != "" && !p.Has(nxt) {
				l.Add(CodeDanglingRef, diag.Error, name, "", "branch -> missing node %q", nxt)
			}
		}
		if d := c.Decode(); d.Kind == CondCompare && !slices.Contains(c.ReadFields, d.Field) {
			l.Add(CodeUndeclaredRead, diag.Error, name, d.Field, "%q compares %q, which its read_fields omit", c.Expr, d.Field)
		}
	}
	// One P4S03 per back edge of the index's DFS. A missing node is a
	// sink there — it is already reported as a dangling reference — so one
	// malformed edge does not mask an independent cycle elsewhere.
	for _, id := range ix.BackEdges() {
		l.Add(CodeCycle, diag.Error, ix.Name(id), "", "cycle through node %q", ix.Name(id))
	}
	return l
}
