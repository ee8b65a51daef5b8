package absint

import (
	"testing"

	"pipeleon/internal/p4ir"
	"pipeleon/internal/synth"
)

// benchProgram is the 54-table program of the proof micro-benchmarks and
// of the end-to-end benchmark's synth-proof workload.
func benchProgram() *p4ir.Program {
	return synth.Program(synth.ProgramSpec{Pipelets: 20, AvgLen: 3, Category: synth.Mixed, Seed: 7})
}

// BenchmarkAnalyzerExecClasses times one warm class tree over the
// program's five conditionals: all 32 path classes, what a semantic proof
// runs once per program.
func BenchmarkAnalyzerExecClasses(b *testing.B) {
	prog := benchProgram()
	an := NewAnalyzer(prog)
	conds := CondNames(prog)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := an.ExecClasses(conds); err != nil {
			b.Fatal(err)
		}
	}
}

// A warm class tree allocates only what it returns — the outcomes, and
// one slab each for their states and values: every working state lives in
// the analyzer's scratch.
func TestWarmExecAllocBudget(t *testing.T) {
	prog := benchProgram()
	an := NewAnalyzer(prog)
	conds := CondNames(prog)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := an.ExecClasses(conds); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Errorf("warm ExecClasses allocates %.0f objects, budget 3 (the outcomes, their states and their values)", allocs)
	}
}
