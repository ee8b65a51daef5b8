package p4ir

import (
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"testing"

	"pipeleon/internal/diag"
)

// FuzzLoadValidate feeds arbitrary bytes through the BMv2-style JSON
// loader and the structural validator: neither may panic on any input,
// and any program that loads AND validates must survive a marshal/reload
// round trip still valid — the invariant the deploy path's rewrite-safety
// checks build on. The Index of any program that decodes agrees with
// Validate: P4S03 exactly when its DFS met a back edge, and a valid
// program's Topo is a topological order of exactly the nodes the root
// reaches. Seed corpus lives in testdata/fuzz/FuzzLoadValidate
// (synthesized programs plus hand-written near-miss documents).
func FuzzLoadValidate(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"name":"x","init_table":"t","tables":[{"name":"t","key":[{"target":"ipv4.dstAddr","match_type":"exact","width":32}],"actions":[{"name":"drop","primitives":[{"op":"drop"}]}]}],"conditionals":[]}`))
	f.Add([]byte(`{"name":"dangling","init_table":"missing","tables":[],"conditionals":[]}`))
	f.Add([]byte(`{"tables":[{"name":"t","key":null,"actions":null}]}`))
	f.Add([]byte(`{"init_table":"a","tables":[{"name":"a","base_next":"b"},{"name":"b","base_next":"a","next_tables":{"x":"ghost"}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		prog := &Program{}
		err := prog.UnmarshalJSON(data) // Load, keeping a program that fails Validate
		var ve *ValidationError
		if err != nil && !errors.As(err, &ve) {
			return // rejection is fine; panics are not
		}
		ix := NewIndex(prog)
		reached := map[string]bool{} // a missing node is a sink, as in the DFS
		for todo := []string{prog.Root}; len(todo) > 0; todo = todo[1:] {
			if n := todo[0]; n != "" && prog.Has(n) && !reached[n] {
				reached[n] = true
				todo = append(todo, successors(prog, n)...)
			}
		}
		indeg := map[string]int{} // Kahn's algorithm: the reached graph is cyclic iff it cannot be peeled
		for u := range reached {
			for _, v := range successors(prog, u) {
				indeg[v]++
			}
		}
		peeled := 0
		for todo := []string{prog.Root}; len(todo) > 0 && indeg[prog.Root] == 0; todo = todo[1:] {
			peeled++
			for _, v := range successors(prog, todo[0]) {
				if indeg[v]--; indeg[v] == 0 && reached[v] {
					todo = append(todo, v)
				}
			}
		}
		cycle := ve != nil && slices.ContainsFunc(ve.Diags, func(d diag.Diagnostic) bool { return d.Code == CodeCycle })
		if cycle != (len(ix.BackEdges()) > 0) || cycle != (peeled < len(reached)) {
			t.Fatalf("P4S03 reported: %v, index back edges: %v, %d of %d reached nodes acyclic", cycle, ix.BackEdges(), peeled, len(reached))
		}
		if err != nil {
			return // structural rejection is fine too
		}
		if len(ix.Topo()) != len(reached) {
			t.Fatalf("topo has %d nodes, the root reaches %d", len(ix.Topo()), len(reached))
		}
		for i, u := range ix.Topo() {
			if !reached[ix.Name(u)] || ix.Pos(u) != int32(i) {
				t.Fatalf("topo[%d] = %q: reached %v, pos %d", i, ix.Name(u), reached[ix.Name(u)], ix.Pos(u))
			}
			for _, v := range successors(prog, ix.Name(u)) {
				if ix.Pos(ix.ID(v)) <= int32(i) {
					t.Fatalf("edge %q -> %q goes back in topo", ix.Name(u), v)
				}
			}
		}
		out, err := json.Marshal(prog)
		if err != nil {
			t.Fatalf("valid program failed to marshal: %v", err)
		}
		again, err := Load(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("valid program failed to reload: %v\njson: %s", err, out)
		}
		if err := again.Validate(); err != nil {
			t.Fatalf("round-tripped program became invalid: %v\njson: %s", err, out)
		}
	})
}

// successors returns the named node's distinct successor names, sorted,
// missing nodes included and the sink "" left out.
func successors(p *Program, name string) []string {
	t, c := p.Node(name)
	return node{t, c}.nexts(nil)
}
