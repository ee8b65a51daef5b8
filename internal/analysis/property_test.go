package analysis_test

import (
	"fmt"
	"testing"

	"pipeleon/internal/analysis"
	"pipeleon/internal/costmodel"
	"pipeleon/internal/opt"
	"pipeleon/internal/synth"
)

// Property tests using the program synthesizer as a fuzz oracle: over many
// seeds, (1) synthesized programs lint clean of Error diagnostics, (2)
// every option opt.Search selects into a plan verifies individually, and
// (3) the fully optimized program both verifies against the original and
// lints clean — i.e. the optimizer provably never emits a candidate the
// safety verifier (or any deploy gate built on it) would reject.

const propertySeeds = 120

func propertyCase(i int) (synth.ProgramSpec, synth.ProfileSpec, costmodel.Params) {
	seed := uint64(7000 + i*131)
	cat := synth.Category(i % 4)
	pspec := synth.ProgramSpec{
		Pipelets: 3 + i%9,
		AvgLen:   1.5 + float64(i%3),
		Category: cat,
		Seed:     seed,
	}
	var pm costmodel.Params
	switch i % 3 {
	case 0:
		pm = costmodel.BlueField2()
	case 1:
		pm = costmodel.AgilioCX()
	default:
		pm = costmodel.EmulatedNIC()
	}
	return pspec, synth.ProfileSpec{Seed: seed + 1, Category: cat}, pm
}

func TestSynthesizedProgramsLintClean(t *testing.T) {
	for i := 0; i < propertySeeds; i++ {
		pspec, _, pm := propertyCase(i)
		prog := synth.Program(pspec)
		if l := analysis.Lint(prog, analysis.WithParams(pm)); l.HasErrors() {
			t.Errorf("seed %d (%s): synthesized program has error diagnostics:\n%v",
				pspec.Seed, pspec.Category, l.Errors())
		}
	}
}

func TestSearchNeverEmitsUnverifiableCandidate(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep")
	}
	planned, applied := 0, 0
	for i := 0; i < propertySeeds; i++ {
		pspec, profSpec, pm := propertyCase(i)
		prog := synth.Program(pspec)
		prof := synth.SynthesizeProfile(prog, profSpec)
		cfg := opt.DefaultConfig()
		cfg.TopKFrac = 1

		s, err := opt.NewSession(prog, pm, cfg)
		if err != nil {
			t.Fatalf("seed %d: session: %v", pspec.Seed, err)
		}
		res, err := s.Search(prof)
		if err != nil {
			t.Fatalf("seed %d: search: %v", pspec.Seed, err)
		}
		// Every selected option, applied alone, yields a verifiable
		// program — the per-candidate gate Search itself enforces.
		for _, o := range res.Plan {
			planned++
			rw, err := opt.Apply(prog, []*opt.Option{o}, cfg)
			if err != nil {
				t.Errorf("seed %d: applying planned option %v: %v", pspec.Seed, o, err)
				continue
			}
			if l := analysis.VerifyRewrite(prog, rw.Program); l.HasErrors() {
				t.Errorf("seed %d: planned option %v fails verification:\n%v",
					pspec.Seed, o, l.Errors())
			}
		}
		// The combined plan verifies and lints clean too.
		if len(res.Plan) == 0 {
			continue
		}
		rw, err := s.Materialize(res.Plan)
		if err != nil {
			t.Fatalf("seed %d: materializing the plan: %v", pspec.Seed, err)
		}
		applied++
		if l := analysis.VerifyRewrite(prog, rw.Program); l.HasErrors() {
			t.Errorf("seed %d: optimized program fails verification:\n%v", pspec.Seed, l.Errors())
		}
		if l := analysis.Lint(rw.Program, analysis.WithParams(pm)); l.HasErrors() {
			t.Errorf("seed %d: optimized program fails lint:\n%v", pspec.Seed, l.Errors())
		}
	}
	if planned == 0 || applied == 0 {
		t.Fatalf("property sweep vacuous: %d planned options, %d applied rewrites", planned, applied)
	}
	t.Logf("verified %d planned options and %d applied rewrites over %d seeds",
		planned, applied, propertySeeds)
}

// A deliberately corrupted rewrite must be caught — the verifier is not
// vacuously accepting everything the optimizer produces.
func TestVerifierCatchesCorruptedRewrites(t *testing.T) {
	caught, produced := 0, 0
	for i := 0; i < propertySeeds && caught < 10; i++ {
		pspec, profSpec, pm := propertyCase(i)
		prog := synth.Program(pspec)
		prof := synth.SynthesizeProfile(prog, profSpec)
		cfg := opt.DefaultConfig()
		cfg.TopKFrac = 1
		s, err := opt.NewSession(prog, pm, cfg)
		if err != nil {
			continue
		}
		_, rw, err := s.SearchAndApply(prof)
		if err != nil || rw == nil {
			continue
		}
		produced++
		// Corrupt: delete one surviving original table from the optimized
		// program (redirecting nothing) — a lost node or broken edge.
		mut := rw.Program.Clone()
		for name := range prog.Tables {
			if _, ok := mut.Tables[name]; ok && name != mut.Root {
				delete(mut.Tables, name)
				break
			}
		}
		if l := analysis.VerifyRewrite(prog, mut); l.HasErrors() {
			caught++
		}
	}
	if produced == 0 {
		t.Skip("no rewrites produced")
	}
	if caught == 0 {
		t.Fatalf("verifier caught none of %d corrupted rewrites", produced)
	}
}

// The synthesizer itself must produce structurally valid programs for
// every category/shape combination (the lint oracle depends on it).
func TestSynthesizerStructurallyValid(t *testing.T) {
	for i := 0; i < propertySeeds; i++ {
		pspec, _, _ := propertyCase(i)
		prog := synth.Program(pspec)
		if sd := prog.StructuralDiagnostics(); len(sd) > 0 {
			t.Errorf("seed %d: %v", pspec.Seed, sd)
		}
	}
}

func BenchmarkLintSynthProgram(b *testing.B) {
	prog := synth.Program(synth.ProgramSpec{Pipelets: 12, AvgLen: 3, Category: synth.Mixed, Seed: 42})
	pm := costmodel.BlueField2()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if l := analysis.Lint(prog, analysis.WithParams(pm)); l.HasErrors() {
			b.Fatal(fmt.Sprint(l))
		}
	}
}
