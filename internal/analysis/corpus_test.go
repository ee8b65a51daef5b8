package analysis_test

import (
	"os"
	"path/filepath"
	"testing"

	"pipeleon/internal/analysis"
	"pipeleon/internal/p4c"
	"pipeleon/internal/target"
)

// The checked-in corpus — the traces cmd/tracegen records and the dash.p4
// source — must lint clean of Error diagnostics: these are the same inputs
// CI lints via `make lint`, and a red corpus would block every deploy path.

func TestTraceCorpusLintsClean(t *testing.T) {
	paths, err := filepath.Glob("../../testdata/traces/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Skip("no traces checked in")
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			trace, err := target.LoadTrace(path)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := trace.EmbeddedProgram()
			if err != nil {
				t.Fatal(err)
			}
			if prog == nil {
				t.Skip("trace has no embedded program")
			}
			l := analysis.Lint(prog, analysis.WithParams(trace.Capabilities.Params))
			if l.HasErrors() {
				t.Errorf("trace program %q has error diagnostics:\n%v", prog.Name, l.Errors())
			}
		})
	}
}

func TestDashSourceLintsClean(t *testing.T) {
	src, err := os.ReadFile("../../testdata/dash.p4")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := p4c.Compile(string(src))
	if err != nil {
		t.Fatal(err)
	}
	if l := analysis.Lint(prog); l.HasErrors() {
		t.Errorf("dash.p4 has error diagnostics:\n%v", l.Errors())
	}
}
