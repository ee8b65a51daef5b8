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

// pathClasses enumerates every truth assignment over the program's
// conditionals, the way the semantic checker does.
func pathClasses(prog *p4ir.Program) []map[string]bool {
	conds := CondNames(prog)
	classes := make([]map[string]bool, 1<<len(conds))
	for bits := range classes {
		classes[bits] = make(map[string]bool, len(conds))
		for i, c := range conds {
			classes[bits][c] = bits>>i&1 == 1
		}
	}
	return classes
}

// BenchmarkAnalyzerExec times one warm path-class execution, the unit a
// semantic proof repeats 2^conditionals times per program.
func BenchmarkAnalyzerExec(b *testing.B) {
	prog := benchProgram()
	an := NewAnalyzer(prog)
	classes := pathClasses(prog)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := an.Exec(classes[i%len(classes)]); err != nil {
			b.Fatal(err)
		}
	}
}

// A warm Exec allocates only the egress state it returns: every working
// state lives in the analyzer's scratch.
func TestWarmExecAllocBudget(t *testing.T) {
	prog := benchProgram()
	an := NewAnalyzer(prog)
	classes := pathClasses(prog)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := an.Exec(classes[i%len(classes)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 2 {
		t.Errorf("warm Exec allocates %.0f objects, budget 2 (the returned State and its values)", allocs)
	}
}
