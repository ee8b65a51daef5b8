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

// BenchmarkLint times the gate's first tier on the 110-table program of
// the synth-shift workload, and BenchmarkVerifyRewrite its second on the
// searched layout of that program with the checker held, as the verifier
// holds it: what a first-sight Gate.Check costs a runtime, and each
// fleet-remote device server, per new layout.
func BenchmarkLint(b *testing.B) {
	_, optimized := controlBenchPrograms(b)
	pm := costmodel.BlueField2()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if l := analysis.Lint(optimized, analysis.WithParams(pm)); l.HasErrors() {
			b.Fatal(l)
		}
	}
}

func BenchmarkVerifyRewrite(b *testing.B) {
	orig, optimized := controlBenchPrograms(b)
	v := analysis.NewVerifier(orig, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if l := v.ProveTouched(optimized, nil); l.HasErrors() {
			b.Fatal(l)
		}
	}
}

func controlBenchPrograms(b *testing.B) (orig, optimized *p4ir.Program) {
	b.Helper()
	orig = synth.Program(synth.ProgramSpec{Pipelets: 40, AvgLen: 3, Category: synth.Mixed, Seed: 7})
	prof := synth.SynthesizeProfile(orig, synth.ProfileSpec{Seed: 8, Category: synth.Mixed})
	s, err := opt.NewSession(orig, costmodel.BlueField2(), opt.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	_, rw, err := s.SearchAndApply(prof)
	if err != nil || rw == nil {
		b.Fatalf("no searched layout of the benchmark program: %v", err)
	}
	return orig, rw.Program
}

// BenchmarkRewriteCheckerNew times what a verifier pays once per original
// program before its first rewrite proof: the structural gate, the
// dependency graph and the classified edge list of the 110-table program.
func BenchmarkRewriteCheckerNew(b *testing.B) {
	orig := synth.Program(synth.ProgramSpec{Pipelets: 40, AvgLen: 3, Category: synth.Mixed, Seed: 7})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.NewRewriteChecker(orig)
	}
}
