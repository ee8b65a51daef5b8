package synth

import "testing"

// BenchmarkSynthProgram times the synthesizer on the 40-pipelet program of
// the end-to-end benchmark's synth-shift workload: part of that
// workload's set-up.
func BenchmarkSynthProgram(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Program(ProgramSpec{Pipelets: 40, AvgLen: 3, Category: Mixed, Seed: 7})
	}
}
