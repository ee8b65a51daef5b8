package opt

import (
	"testing"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/synth"
)

// Property: the search result is a pure function of the inputs — the
// worker count only changes how candidate evaluation is scheduled, never
// what it produces. Serial (SearchWorkers=1) and wide-pool runs must agree
// on every unit, every option, the chosen plan, and the scores.
func TestSearchDeterministicAcrossWorkerCounts(t *testing.T) {
	pm := costmodel.EmulatedNIC()
	for trial := 0; trial < 6; trial++ {
		seed := uint64(9100 + trial*733)
		cat := synth.Category(trial % 4)
		prog := synth.Program(synth.ProgramSpec{Pipelets: 6 + trial%5, AvgLen: 3, Category: cat, Seed: seed})
		prof := synth.SynthesizeProfile(prog, synth.ProfileSpec{Seed: seed + 1, Category: cat})

		cfg := DefaultConfig()
		cfg.TopKFrac = 1
		cfg.SearchWorkers = 1
		serial, err := coldSession(t, prog, pm, cfg).Search(prof)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 8} {
			cfg.SearchWorkers = workers
			par, err := coldSession(t, prog, pm, cfg).Search(prof)
			if err != nil {
				t.Fatal(err)
			}
			if len(par.Units) != len(serial.Units) {
				t.Fatalf("trial %d workers=%d: %d units != %d serial", trial, workers, len(par.Units), len(serial.Units))
			}
			for i := range serial.Units {
				su, pu := serial.Units[i], par.Units[i]
				if su.Name != pu.Name || len(su.Options) != len(pu.Options) {
					t.Fatalf("trial %d workers=%d: unit %d mismatch: %s/%d vs %s/%d",
						trial, workers, i, su.Name, len(su.Options), pu.Name, len(pu.Options))
				}
				for j := range su.Options {
					if su.Options[j].String() != pu.Options[j].String() || su.Options[j].Gain != pu.Options[j].Gain {
						t.Errorf("trial %d workers=%d: unit %s option %d differs: %s gain=%v vs %s gain=%v",
							trial, workers, su.Name, j,
							su.Options[j], su.Options[j].Gain, pu.Options[j], pu.Options[j].Gain)
					}
				}
			}
			if par.CandidatesEvaluated != serial.CandidatesEvaluated {
				t.Errorf("trial %d workers=%d: candidates %d != %d", trial, workers, par.CandidatesEvaluated, serial.CandidatesEvaluated)
			}
			if par.Gain != serial.Gain {
				t.Errorf("trial %d workers=%d: gain %v != %v", trial, workers, par.Gain, serial.Gain)
			}
			if len(par.Plan) != len(serial.Plan) {
				t.Fatalf("trial %d workers=%d: plan size %d != %d", trial, workers, len(par.Plan), len(serial.Plan))
			}
			for i := range serial.Plan {
				if serial.Plan[i].String() != par.Plan[i].String() {
					t.Errorf("trial %d workers=%d: plan[%d] %s != %s", trial, workers, i, par.Plan[i], serial.Plan[i])
				}
			}
			if rs, rp := coldReScore(t, prog, prof, pm, cfg, serial.Plan), coldReScore(t, prog, prof, pm, cfg, par.Plan); rs != rp {
				t.Errorf("trial %d workers=%d: rescore %v != %v", trial, workers, rp, rs)
			}
		}
	}
}
