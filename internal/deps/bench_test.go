package deps_test

import (
	"testing"

	"pipeleon/internal/deps"
	"pipeleon/internal/synth"
)

// BenchmarkNewAnalyzer times the dependency analysis of the 110-table
// program of the end-to-end benchmark's synth-shift workload: numbering
// its fields and filling every node's read, key and write sets.
func BenchmarkNewAnalyzer(b *testing.B) {
	prog := synth.Program(synth.ProgramSpec{Pipelets: 40, AvgLen: 3, Category: synth.Mixed, Seed: 7})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deps.NewAnalyzer(prog)
	}
}
