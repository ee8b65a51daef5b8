package absint

import (
	"slices"
	"testing"

	"pipeleon/internal/p4ir"
)

// A cached body serves exactly the tables whose contents equal those it
// was compiled from. An unchanged copy of the original compiles no table;
// a table whose entries were edited — in a copy, or in place in the very
// program the cache was built from — compiles anew, and the analysis of
// the edited program matches the reference interpreter's.
func TestCacheKeyedByContent(t *testing.T) {
	orig := benchProgram()
	c := NewCache(orig)
	bodies := map[*ctable]bool{}
	for _, nd := range c.orig.plan.nodes {
		if nd.tab != nil {
			bodies[nd.tab] = true
		}
	}
	reused := func(p *p4ir.Program) (hit, miss int) {
		for _, nd := range c.Analyzer(p).plan.nodes {
			if nd.tab == nil {
				continue
			}
			if bodies[nd.tab] {
				hit++
			} else {
				miss++
			}
		}
		return hit, miss
	}
	if hit, miss := reused(orig.Clone()); miss != 0 || hit != len(orig.Tables) {
		t.Fatalf("an unchanged copy compiled %d of its %d tables (%d reused)", miss, len(orig.Tables), hit)
	}

	// The tables with entries and a second action, in name order; an edit
	// points every entry of one at an action its first entry does not run.
	var edited []string
	for _, name := range p4ir.NewIndex(orig).Names() {
		if tbl := orig.Tables[name]; tbl != nil && len(tbl.Entries) > 0 && len(tbl.Actions) > 1 {
			edited = append(edited, name)
		}
	}
	if len(edited) < 3 {
		t.Fatalf("only %d tables to edit", len(edited))
	}
	edit := func(p *p4ir.Program, name string) { // through entry operations, the entries in order
		tbl := p.Tables[name]
		other := tbl.Actions[0].Name
		if other == tbl.Entries[0].Action {
			other = tbl.Actions[1].Name
		}
		entries := slices.Clone(tbl.Entries)
		for _, e := range entries {
			if _, err := p.DeleteEntry(name, e.Match); err != nil {
				t.Fatal(err)
			}
		}
		for _, e := range entries {
			e.Action = other
			if _, err := p.InsertEntry(name, e); err != nil {
				t.Fatal(err)
			}
		}
	}
	conds := CondNames(orig)
	before, err := NewAnalyzer(orig).ExecClasses(conds)
	if err != nil {
		t.Fatal(err)
	}

	cp := orig.Clone()
	for _, name := range edited {
		edit(cp, name)
	}
	after, err := NewAnalyzer(cp).ExecClasses(conds)
	if err != nil {
		t.Fatal(err)
	}
	if slices.EqualFunc(before, after, sameOutcome) {
		t.Fatal("vacuous: the edits change no class outcome")
	}
	if _, miss := reused(cp); miss != len(edited) {
		t.Errorf("a copy with %d edited tables compiled %d", len(edited), miss)
	}
	if d := diffCompiled(c.Analyzer(cp), cp, 5); d != "" {
		t.Fatalf("edited copy: %s", d)
	}

	// In place, in the original itself: the cache still holds the bodies
	// of the entries it saw, and must not hand them to the edited tables.
	for _, name := range edited {
		edit(orig, name)
	}
	if d := diffCompiled(c.Analyzer(orig), orig, 5); d != "" {
		t.Fatalf("original edited in place: %s", d)
	}
}
