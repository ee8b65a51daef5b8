package opt

import (
	"math"
	"testing"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/profile"
	"pipeleon/internal/synth"
)

// coldReScore re-scores a plan on a fresh session — what a caller without
// a warm one does.
func coldReScore(t *testing.T, prog *p4ir.Program, prof *profile.Profile, pm costmodel.Params, cfg Config, plan []*Option) float64 {
	t.Helper()
	return coldSession(t, prog, pm, cfg).ReScore(prof, plan)
}

// coldSession is a session nobody keeps: one round on it is what the
// tests compare a held session against.
func coldSession(tb testing.TB, prog *p4ir.Program, pm costmodel.Params, cfg Config) *Session {
	tb.Helper()
	s, err := NewSession(prog, pm, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// Property: re-scoring a plan under the SAME profile that produced it must
// reproduce each option's gain — the hysteresis comparison in the runtime
// is only sound if ScoreOption and the search agree.
func TestScoreOptionMatchesSearchGain(t *testing.T) {
	pm := costmodel.EmulatedNIC()
	for trial := 0; trial < 10; trial++ {
		seed := uint64(3300 + trial*401)
		cat := synth.Category(trial % 4)
		prog := synth.Program(synth.ProgramSpec{Pipelets: 6 + trial%6, AvgLen: 2, Category: cat, Seed: seed})
		prof := synth.SynthesizeProfile(prog, synth.ProfileSpec{Seed: seed + 1, Category: cat})
		cfg := DefaultConfig()
		cfg.TopKFrac = 1
		cfg.CacheInsertLimit = 0
		sr, err := coldSession(t, prog, pm, cfg).Search(prof)
		if err != nil {
			t.Fatal(err)
		}
		ev := NewEvaluator(prog, prof, pm, cfg)
		for _, o := range sr.Plan {
			re := ev.ScoreOption(o)
			if math.Abs(re-o.Gain) > 1e-6*(1+math.Abs(o.Gain)) {
				t.Errorf("trial %d: option %s: search gain %.4f != rescore %.4f", trial, o, o.Gain, re)
			}
		}
		total := coldReScore(t, prog, prof, pm, cfg, sr.Plan)
		if math.Abs(total-sr.Gain) > 1e-6*(1+sr.Gain) {
			t.Errorf("trial %d: plan gain %.4f != rescore total %.4f", trial, sr.Gain, total)
		}
	}
}

// Re-scoring under a DIFFERENT profile must not panic and should move in
// the sensible direction when the profile invalidates the plan's premise.
func TestReScoreReactsToProfileShift(t *testing.T) {
	pm := costmodel.EmulatedNIC()
	prog := synth.Program(synth.ProgramSpec{Pipelets: 6, AvgLen: 2, Category: synth.HighLocality, Seed: 42})
	profGood := synth.SynthesizeProfile(prog, synth.ProfileSpec{Seed: 43, Category: synth.HighLocality})
	cfg := DefaultConfig()
	cfg.TopKFrac = 1
	cfg.CacheInsertLimit = 0
	sr, err := coldSession(t, prog, pm, cfg).Search(profGood)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Plan) == 0 {
		t.Skip("no plan")
	}
	// A hostile profile: terrible locality and heavy churn — caching
	// premises collapse.
	profBad := synth.SynthesizeProfile(prog, synth.ProfileSpec{Seed: 44, Category: synth.Mixed})
	profBad.FlowCardinality = 1 << 20
	for name := range prog.Tables {
		profBad.UpdateRates[name] = 500
		profBad.KeyCardinality[name] = 1 << 18
	}
	good := coldReScore(t, prog, profGood, pm, cfg, sr.Plan)
	bad := coldReScore(t, prog, profBad, pm, cfg, sr.Plan)
	if bad >= good {
		t.Errorf("hostile profile should lower the plan's re-scored gain: %v >= %v", bad, good)
	}
}
