package p4ir_test

import (
	"sync"
	"testing"

	"pipeleon/internal/p4ir"
)

// The fleet deploys one program to several devices at once: goroutines
// clone it side by side, and each changes its own clone's entries. Under
// -race this is the ownership check; without, each clone must end with
// its own edits and the source with none.
func TestConcurrentClonesOwnTheirEdits(t *testing.T) {
	src := synth110()
	name := filled(t, src)
	first := src.Tables[name].Entries[0]
	if _, err := src.ModifyEntry(name, first.Match, first.Action, first.Args); err != nil {
		t.Fatal(err) // the table knows from here on whether a clone shares its array
	}
	want := src.Digest()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := src.Clone()
			for name, tbl := range c.Tables {
				if len(tbl.Entries) == 0 {
					continue
				}
				e := tbl.Entries[0]
				if _, err := c.ModifyEntry(name, e.Match, e.Action, []string{"edited"}); err != nil {
					t.Error(err)
				}
				if _, err := c.DeleteEntry(name, e.Match); err != nil {
					t.Error(err)
				}
				if _, err := c.InsertEntry(name, e); err != nil {
					t.Error(err)
				}
			}
			if c.Digest() == want {
				t.Error("a clone's edits did not show in it")
			}
		}()
	}
	wg.Wait()
	if src.Digest() != want {
		t.Error("the clones' edits showed in their source")
	}
}

// A clone costs the graph, not the entries: the same allocations whatever
// the tables hold.
func TestCloneAllocsIndependentOfEntries(t *testing.T) {
	p := synth110()
	before := testing.AllocsPerRun(20, func() { p.Clone() })
	doubled := 0
	for name, tbl := range p.Tables {
		tbl.MaxEntries = 0
		for _, e := range append([]p4ir.Entry(nil), tbl.Entries...) {
			if _, err := p.InsertEntry(name, e); err != nil {
				t.Fatal(err)
			}
			doubled++
		}
	}
	if doubled == 0 {
		t.Fatal("vacuous: no entries to double")
	}
	if after := testing.AllocsPerRun(20, func() { p.Clone() }); after != before {
		t.Errorf("Clone: %v allocs, %v with %d more entries", before, after, doubled)
	}
}

// filled names the first table, in index order, that has entries.
func filled(t *testing.T, p *p4ir.Program) string {
	for _, name := range p4ir.NewIndex(p).Names() {
		if tbl := p.Tables[name]; tbl != nil && len(tbl.Entries) > 0 {
			return name
		}
	}
	t.Fatal("no table has entries")
	return ""
}

var cloneSink *p4ir.Program

// BenchmarkClone prices the copy every deploy makes of the 110-table
// program of the synth-shift workload.
func BenchmarkClone(b *testing.B) {
	p := synth110()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cloneSink = p.Clone()
	}
}
