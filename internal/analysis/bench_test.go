package analysis_test

import (
	"testing"

	"pipeleon/internal/analysis"
	"pipeleon/internal/costmodel"
	"pipeleon/internal/opt"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/synth"
)

// proofBenchPrograms returns the 54-table program of the proof
// micro-benchmarks (the synth-proof workload of the end-to-end benchmark)
// and the program its searched plan rewrites it into — searched with the
// deep gate on, as in that workload, so the plan holds proven options only.
func proofBenchPrograms(b *testing.B) (orig, optimized *p4ir.Program) {
	b.Helper()
	orig = synth.Program(synth.ProgramSpec{Pipelets: 20, AvgLen: 3, Category: synth.Mixed, Seed: 7})
	prof := synth.SynthesizeProfile(orig, synth.ProfileSpec{Seed: 8, Category: synth.Mixed})
	cfg := opt.DefaultConfig()
	cfg.TopKFrac = 1
	cfg.DeepVerify = true
	s, err := opt.NewSession(orig, costmodel.BlueField2(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	_, rw, err := s.SearchAndApply(prof)
	if err != nil {
		b.Fatal(err)
	}
	if rw == nil {
		b.Fatal("search found no plan for the benchmark program")
	}
	return orig, rw.Program
}

// BenchmarkSemanticCheckerNew times what a session pays once per program
// (and once more after entry updates): every path class of the original.
func BenchmarkSemanticCheckerNew(b *testing.B) {
	orig, _ := proofBenchPrograms(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.NewSemanticChecker(orig)
	}
}

// BenchmarkSemanticVerify times one proof of the optimized program: cold
// (the semantic tier alone on a candidate: compile, every path class,
// compare) and memo (Verifier.Prove of a program it has proven, under the
// digest the caller holds: one lookup).
func BenchmarkSemanticVerify(b *testing.B) {
	orig, optimized := proofBenchPrograms(b)
	b.Run("cold", func(b *testing.B) {
		sc := analysis.NewSemanticChecker(orig)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if d := sc.Verify(optimized); d.HasErrors() {
				b.Fatal(d)
			}
		}
	})
	b.Run("memo", func(b *testing.B) {
		v := analysis.NewVerifier(orig, true)
		digest := optimized.Digest()
		v.Prove(optimized, digest)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if d := v.Prove(optimized, digest); d.HasErrors() {
				b.Fatal(d)
			}
		}
	})
}

// BenchmarkLintDeep times the symbolic lint tier the deploy gate runs on
// every candidate.
func BenchmarkLintDeep(b *testing.B) {
	_, optimized := proofBenchPrograms(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.LintDeep(optimized)
	}
}
