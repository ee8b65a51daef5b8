package absint

import (
	"fmt"
	"os"
	"slices"
	"testing"

	"pipeleon/internal/p4c"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/synth"
)

// TestCompiledWritesAreWriteSet: for every action of the agreement corpus,
// the slots the interpreter's compiled action writes are the action's
// WriteSet. nicsim's TestCompiledWritesAreWriteSet holds the emulator to
// the same set, over the same corpus.
func TestCompiledWritesAreWriteSet(t *testing.T) {
	for name, prog := range writeSetCorpus(t) {
		p := compile(prog, nil, false)
		if p.err != nil {
			t.Fatalf("%s: %v", name, p.err)
		}
		for _, tbl := range prog.Tables {
			for _, a := range tbl.Actions {
				var got []string
				for _, s := range p.compileAction(a).writes {
					got = append(got, p.fields.names[s])
				}
				want := slices.Clone(a.WriteSet())
				slices.Sort(want)
				if slices.Sort(got); !slices.Equal(got, slices.Compact(want)) {
					t.Errorf("%s: %s.%s: compiled writes %v, WriteSet %v", name, tbl.Name, a.Name, got, want)
				}
			}
		}
	}
}

// writeSetCorpus is the 120-seed synthesized corpus, the DASH program and
// a program using every primitive, operand kind and condition kind.
func writeSetCorpus(t *testing.T) map[string]*p4ir.Program {
	t.Helper()
	corpus := map[string]*p4ir.Program{}
	for trial := 0; trial < 120; trial++ {
		corpus[fmt.Sprintf("synth-%d", trial)] = synth.Program(synth.ProgramSpec{
			Pipelets: 3 + trial%6, AvgLen: 2 + float64(trial%3), Category: synth.Category(trial % 4),
			Seed: uint64(9100 + trial*127), EntriesPerTable: []int{0, 5, 40}[trial%3], DiamondOnly: trial%5 == 0,
		})
	}
	src, err := os.ReadFile("../../../testdata/dash.p4")
	if err != nil {
		t.Fatal(err)
	}
	if corpus["dash.p4"], err = p4c.Compile(string(src)); err != nil {
		t.Fatal(err)
	}
	if corpus["every_op"], err = p4ir.LoadFile("../../p4ir/testdata/every_op.json"); err != nil {
		t.Fatal(err)
	}
	return corpus
}
