package main

import (
	"testing"

	"pipeleon"
)

// The compiled dash.p4 program must pass the same static-analysis gate
// the runtime applies before any deploy, including the memory-tier rules
// under the example's tiered target.
func TestExampleProgramLintsClean(t *testing.T) {
	prog, err := pipeleon.LoadProgram("../../testdata/dash.p4")
	if err != nil {
		t.Fatal(err)
	}
	target := pipeleon.AgilioCX()
	target.SRAMFactor = 0.4
	target.SRAMBytes = 8 << 10
	if l := pipeleon.Lint(prog, target); l.HasErrors() {
		t.Errorf("example program has error diagnostics:\n%v", l.Errors())
	}
}

// The symbolic tier must come back empty too: no dead or shadowed
// entries, decided branches, dead writes, or proven truncations ship in
// an example.
func TestExampleProgramDeepLintsClean(t *testing.T) {
	prog, err := pipeleon.LoadProgram("../../testdata/dash.p4")
	if err != nil {
		t.Fatal(err)
	}
	if l := pipeleon.LintDeep(prog); len(l) > 0 {
		t.Errorf("example program has symbolic-tier findings:\n%v", l)
	}
}
