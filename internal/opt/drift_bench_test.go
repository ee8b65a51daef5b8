package opt

import (
	"testing"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/profile"
	"pipeleon/internal/synth"
)

// driftRig is the search the runtime's loop asks for: one warm session on
// the 110-table program of the end-to-end benchmark's synth-shift workload
// (default config, the runtime's hit-rate feedback in the override map) and
// eight profiles whose traffic category rotates, so every round searches a
// profile that moved.
func driftRig(tb testing.TB) (*Session, []*profile.Profile) {
	tb.Helper()
	prog := synth.Program(synth.ProgramSpec{Pipelets: 40, AvgLen: 3, Category: synth.Mixed, Seed: 7})
	cfg := DefaultConfig()
	cfg.HitRateOverride = map[string]float64{}
	s, err := NewSession(prog, costmodel.BlueField2(), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	profs := make([]*profile.Profile, 8)
	for r := range profs {
		profs[r] = synth.SynthesizeProfile(prog, synth.ProfileSpec{Seed: uint64(500 + r), Category: synth.Category(r % 4)})
	}
	// A first lap leaves the feedback a runtime would have written for the
	// cache spans it deployed; a second has every plan chosen under that
	// feedback verified, as a session a few rounds old has.
	for lap := 0; lap < 2; lap++ {
		for _, prof := range profs {
			res, err := s.Search(prof)
			if err != nil {
				tb.Fatal(err)
			}
			for _, o := range res.Plan {
				if o.Kind == OptPipelet && lap == 0 {
					for _, sg := range o.Segments {
						cfg.HitRateOverride[SpanKey(o.segTables(sg))] = 0.6
					}
				}
			}
		}
	}
	return s, profs
}

// BenchmarkSearchDrift: one search of a warm session on a profile that is
// not the previous round's — the only search core.Runtime ever asks for
// (an unchanged profile is skipped by change detection before it gets here).
func BenchmarkSearchDrift(b *testing.B) {
	s, profs := driftRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Search(profs[i%len(profs)]); err != nil {
			b.Fatal(err)
		}
	}
}
