package main

import (
	"testing"

	"pipeleon"
)

// The example program must pass the same static-analysis gate the runtime
// applies before any deploy.
func TestExampleProgramLintsClean(t *testing.T) {
	if l := pipeleon.Lint(buildInterleaved(), pipeleon.BlueField2()); l.HasErrors() {
		t.Errorf("example program has error diagnostics:\n%v", l.Errors())
	}
}

// The symbolic tier must come back empty too: no dead or shadowed
// entries, decided branches, dead writes, or proven truncations ship in
// an example.
func TestExampleProgramDeepLintsClean(t *testing.T) {
	if l := pipeleon.LintDeep(buildInterleaved()); len(l) > 0 {
		t.Errorf("example program has symbolic-tier findings:\n%v", l)
	}
}
