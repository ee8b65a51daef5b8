package opt

import (
	"testing"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/synth"
)

// BenchmarkProveTouched times one option proof as the search makes it:
// optionVerifier.verify with its verdict memo cold — the option applied
// alone to a scratch clone of the synth-proof program (the 54-table
// program of the proof benches), then Verifier.ProveTouched: the
// dependency tier over the edges the option touched and the semantic tier.
// The option is the first of the plan the deep search selects.
func BenchmarkProveTouched(b *testing.B) {
	prog := synth.Program(synth.ProgramSpec{Pipelets: 20, AvgLen: 3, Category: synth.Mixed, Seed: 7})
	prof := synth.SynthesizeProfile(prog, synth.ProfileSpec{Seed: 8, Category: synth.Mixed})
	cfg := DefaultConfig()
	cfg.TopKFrac = 1
	cfg.DeepVerify = true
	s, err := NewSession(prog, costmodel.BlueField2(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	res, err := s.Search(prof)
	if err != nil {
		b.Fatal(err)
	}
	if len(res.Plan) == 0 {
		b.Fatal("the deep search selected no option")
	}
	o, ov := res.Plan[0], s.verifier
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ov.verdict.Reset()
		if !ov.verify(o) {
			b.Fatalf("option %s no longer proves", o)
		}
	}
}
