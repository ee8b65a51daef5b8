package opt

import (
	"testing"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/synth"
)

// End-to-end budget enforcement (Equation 5): whatever plan the full
// search produces, its total memory and entry-update costs must respect
// the configured limits, and tightening the limits must never raise the
// gain.
func TestSearchRespectsResourceBudgets(t *testing.T) {
	pm := costmodel.EmulatedNIC()
	for trial := 0; trial < 8; trial++ {
		seed := uint64(9000 + trial*577)
		prog := synth.Program(synth.ProgramSpec{
			Pipelets: 8, AvgLen: 2.5, Category: synth.Category(trial % 4), Seed: seed,
		})
		prof := synth.SynthesizeProfile(prog, synth.ProfileSpec{Seed: seed + 1, Category: synth.Category(trial % 4)})

		mk := func(mem int, upd float64) *SearchResult {
			cfg := DefaultConfig()
			cfg.TopKFrac = 1
			cfg.MemoryBudget = mem
			cfg.UpdateBudget = upd
			cfg.CacheInsertLimit = 500
			sr, err := coldSession(t, prog, pm, cfg).Search(prof)
			if err != nil {
				t.Fatal(err)
			}
			return sr
		}
		unconstrained := mk(0, 0)
		tight := mk(64<<10, 1200)
		tighter := mk(8<<10, 400)

		for _, sr := range []*SearchResult{tight, tighter} {
			mem, upd := planCosts(sr.Plan)
			limitMem := map[*SearchResult]int{tight: 64 << 10, tighter: 8 << 10}[sr]
			limitUpd := map[*SearchResult]float64{tight: 1200, tighter: 400}[sr]
			if mem > limitMem {
				t.Errorf("trial %d: plan memory %d exceeds budget %d", trial, mem, limitMem)
			}
			if upd > limitUpd {
				t.Errorf("trial %d: plan update rate %v exceeds budget %v", trial, upd, limitUpd)
			}
		}
		if tight.Gain > unconstrained.Gain+1e-9 {
			t.Errorf("trial %d: constrained gain %v exceeds unconstrained %v", trial, tight.Gain, unconstrained.Gain)
		}
		if tighter.Gain > tight.Gain+1e-9 {
			t.Errorf("trial %d: tighter budget produced higher gain (%v > %v)", trial, tighter.Gain, tight.Gain)
		}
	}
}

// Applying a budget-constrained plan must still yield a valid program.
func TestConstrainedPlansApplyCleanly(t *testing.T) {
	pm := costmodel.EmulatedNIC()
	prog := synth.Program(synth.ProgramSpec{Pipelets: 10, AvgLen: 2, Category: synth.HighLocality, Seed: 777})
	prof := synth.SynthesizeProfile(prog, synth.ProfileSpec{Seed: 778, Category: synth.HighLocality})
	cfg := DefaultConfig()
	cfg.TopKFrac = 1
	cfg.MemoryBudget = 32 << 10
	cfg.UpdateBudget = 2000
	cfg.CacheInsertLimit = 500
	sr, rw, err := coldSession(t, prog, pm, cfg).SearchAndApply(prof)
	if err != nil {
		t.Fatal(err)
	}
	if rw == nil {
		t.Skipf("no plan under budget (gain %v)", sr.Gain)
	}
	if err := rw.Program.Validate(); err != nil {
		t.Fatal(err)
	}
}
