package absint_test

import (
	"fmt"
	"testing"

	"pipeleon/internal/analysis/absint"
	"pipeleon/internal/costmodel"
	"pipeleon/internal/opt"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/synth"
)

// maxCandidates caps the candidates checked per program. The search
// enumerates over a thousand for the larger programs, nearly all of them
// orders and segmentations of one pipelet, and the reference interpreter
// needs milliseconds for each; an evenly strided sample keeps the whole
// property inside the time the rest of the suite takes.
const maxCandidates = 24

func checkAgainstReference(t *testing.T, what string, p *p4ir.Program) {
	t.Helper()
	if d := absint.DiffAgainstReference(p, 8); d != "" {
		t.Fatalf("%s: %s", what, d)
	}
}

// The dense interpreter replaced the map-based one; the latter survives in
// reference_test.go as the oracle. Over 120 synthesized programs (30 under
// -short) — each original plus the candidates the search enumerates for
// it, each applied alone — both must agree on every node result and
// truncation of Analyze and on the outcome of every path class. Run under
// -race in CI.
func TestDenseMatchesReference(t *testing.T) {
	pm := costmodel.BlueField2()
	trials := 120
	if testing.Short() {
		trials = 30
	}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("seed-%d", trial), func(t *testing.T) {
			t.Parallel()
			seed := uint64(7700 + trial*311)
			cat := synth.Category(trial % 4)
			prog := synth.Program(synth.ProgramSpec{
				Pipelets:        3 + trial%7,
				AvgLen:          1.5 + float64(trial%3),
				Category:        cat,
				Seed:            seed,
				EntriesPerTable: []int{0, 4, 12}[trial%3],
				DiamondOnly:     trial%5 == 0,
			})
			checkAgainstReference(t, "original", prog)

			prof := synth.SynthesizeProfile(prog, synth.ProfileSpec{Seed: seed + 1, Category: cat})
			cfg := opt.DefaultConfig()
			cfg.TopKFrac = 1
			s, err := opt.NewSession(prog, pm, cfg)
			if err != nil {
				t.Fatalf("session: %v", err)
			}
			res, err := s.Search(prof)
			if err != nil {
				t.Fatalf("search: %v", err)
			}
			var cands []*opt.Option
			for _, u := range res.Units {
				cands = append(cands, u.Options...)
			}
			stride := (len(cands) + maxCandidates - 1) / maxCandidates
			for i := 0; i < len(cands); i += max(stride, 1) {
				rw, err := opt.Apply(prog, cands[i:i+1], cfg)
				if err != nil {
					continue // the search drops candidates that fail to apply
				}
				checkAgainstReference(t, cands[i].String(), rw.Program)
			}
		})
	}
}

// The same on the 54-table program of the micro-benchmarks, whose five
// conditionals give 32 path classes: the original and its jointly applied
// plan.
func TestDenseMatchesReferenceLargeProgram(t *testing.T) {
	prog := absint.BenchProgram()
	checkAgainstReference(t, "original", prog)
	prof := synth.SynthesizeProfile(prog, synth.ProfileSpec{Seed: 8, Category: synth.Mixed})
	cfg := opt.DefaultConfig()
	cfg.TopKFrac = 1
	s, err := opt.NewSession(prog, costmodel.BlueField2(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, rw, err := s.SearchAndApply(prof)
	if err != nil {
		t.Fatal(err)
	}
	if rw == nil {
		t.Fatal("search found no plan for the benchmark program")
	}
	checkAgainstReference(t, "optimized", rw.Program)
}
