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
	CodeBadEntry       = "P4S06" // entry arity/action malformed
	CodeBadActionNext  = "P4S07" // switch-case references unknown action
	CodeNameMismatch   = "P4S08" // map key differs from node name
	CodeUndeclaredRead = "P4S09" // compared field missing from ReadFields
)

// StructuralDiagnostics checks structural well-formedness of the program
// and returns every violation found, in deterministic order:
//
//   - a root exists and names a real node,
//   - every successor reference resolves ("" means sink),
//   - the reachable graph is acyclic (run-to-completion programs are DAGs),
//   - every table's default action and switch-case action labels exist,
//   - every entry's match arity equals the key arity and its action exists,
//   - no name is both a table and a conditional,
//   - every map key equals its node's Name field,
//   - a comparison's field is among its conditional's ReadFields, the
//     read set the dependency analysis sees.
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

	tableNames := make([]string, 0, len(p.Tables))
	for name := range p.Tables {
		tableNames = append(tableNames, name)
	}
	sort.Strings(tableNames)
	condNames := make([]string, 0, len(p.Conds))
	for name := range p.Conds {
		condNames = append(condNames, name)
	}
	sort.Strings(condNames)

	for _, name := range tableNames {
		if _, dup := p.Conds[name]; dup {
			l.Add(CodeDupNode, diag.Error, name, "", "%q is both a table and a conditional", name)
		}
	}
	for _, name := range tableNames {
		t := p.Tables[name]
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
		for i, e := range t.Entries {
			if len(e.Match) != len(t.Keys) {
				l.Add(CodeBadEntry, diag.Error, name, "", "entry %d has %d match values for %d keys",
					i, len(e.Match), len(t.Keys))
			}
			if t.Action(e.Action) == nil {
				l.Add(CodeBadEntry, diag.Error, name, "", "entry %d references unknown action %q", i, e.Action)
			}
		}
	}
	for _, name := range condNames {
		c := p.Conds[name]
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
	l = append(l, p.cycleDiagnostics()...)
	return l
}

// cycleDiagnostics runs a DFS from the root reporting every back edge.
// Missing nodes are treated as sinks here — they are already reported as
// dangling references — so one malformed edge does not mask an independent
// cycle elsewhere in the graph.
func (p *Program) cycleDiagnostics() diag.List {
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	var l diag.List
	state := map[string]int{}
	var visit func(string)
	visit = func(n string) {
		if n == "" || !p.Has(n) {
			return
		}
		switch state[n] {
		case done:
			return
		case visiting:
			l.Add(CodeCycle, diag.Error, n, "", "cycle through node %q", n)
			return
		}
		state[n] = visiting
		for _, s := range p.Successors(n) {
			visit(s)
		}
		state[n] = done
	}
	visit(p.Root)
	return l
}
