package opt

import (
	"fmt"
	"testing"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/synth"
)

// planSignature renders a plan as a comparable string.
func planSignature(res *SearchResult) string {
	s := fmt.Sprintf("gain=%.6f;", res.Gain)
	for _, o := range res.Plan {
		s += o.String() + ";"
	}
	return s
}

// The deep gate must be sound in the direction that matters for the
// optimizer: every candidate the search produces is a legal rewrite
// (guaranteed by the dependency verifier + differential emulator tests),
// so the semantic tier (analysis.SemanticChecker) must never reject one. A false positive
// would silently degrade plans. We prove zero false positives over a
// 120-seed synthesized corpus: the search with DeepVerify on must pick
// exactly the plan it picks with the gate off.
func TestDeepVerifyRejectsNoSearchCandidates(t *testing.T) {
	pm := costmodel.BlueField2()
	trials := 120
	if testing.Short() {
		trials = 30
	}
	var misses uint64
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("seed-%d", trial), func(t *testing.T) {
			t.Parallel()
			seed := uint64(7700 + trial*311)
			cat := synth.Category(trial % 4)
			prog := synth.Program(synth.ProgramSpec{
				Pipelets:        3 + trial%3,
				AvgLen:          1.5 + float64(trial%3),
				Category:        cat,
				Seed:            seed,
				EntriesPerTable: []int{0, 4, 12}[trial%3],
				DiamondOnly:     trial%5 == 0,
			})
			prof := synth.SynthesizeProfile(prog, synth.ProfileSpec{Seed: seed + 1, Category: cat})

			cfg := DefaultConfig()
			cfg.TopKFrac = 1
			base, err := coldSession(t, prog, pm, cfg).Search(prof)
			if err != nil {
				t.Fatalf("baseline search: %v", err)
			}

			cfg.DeepVerify = true
			sess, err := NewSession(prog, pm, cfg)
			if err != nil {
				t.Fatalf("session: %v", err)
			}
			deep, err := sess.Search(prof)
			if err != nil {
				t.Fatalf("deep search: %v", err)
			}
			if a, b := planSignature(base), planSignature(deep); a != b {
				t.Errorf("deep gate changed the plan (false positive):\n  off: %s\n  on:  %s", a, b)
			}

			// The joint check in SearchAndApply must accept the applied
			// program too.
			if _, _, err := sess.SearchAndApply(prof); err != nil {
				t.Errorf("SearchAndApply with DeepVerify: %v", err)
			}
			st := sess.Stats()
			if len(deep.Plan) > 0 && (st.VerifyMisses == 0 || !sess.Verifier().IsDeep()) {
				t.Errorf("plan chosen but deep verifier never consulted: %+v", st)
			}
		})
	}
	_ = misses
}
