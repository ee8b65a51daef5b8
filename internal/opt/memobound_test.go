package opt

import (
	"fmt"
	"testing"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/synth"
)

// A long-lived session sees an unbounded stream of distinct options; its
// two per-option verdict memos must stay at their cap, and an option
// evicted meanwhile must verify again to the same verdict.
func TestVerdictMemosStayBounded(t *testing.T) {
	prog := synth.Program(synth.ProgramSpec{Pipelets: 4, AvgLen: 2, Category: synth.HeavyDrop, Seed: 99})
	prof := synth.SynthesizeProfile(prog, synth.ProfileSpec{Seed: 100, Category: synth.HeavyDrop})
	cfg := DefaultConfig()
	cfg.TopKFrac = 1
	cfg.DeepVerify = true
	s, err := NewSession(prog, costmodel.BlueField2(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Search(prof)
	if err != nil {
		t.Fatal(err)
	}
	var real []*Option
	for _, u := range res.Units {
		real = append(real, u.Options...)
	}
	if len(real) == 0 {
		t.Fatal("search enumerated no candidates")
	}
	if len(real) > 32 {
		real = real[:32]
	}
	type verdict struct{ rewrite, semantic bool }
	want := make([]verdict, len(real))
	accepted := 0
	for i, o := range real {
		want[i] = verdict{s.verifier.verify(o), s.sem.verify(o)}
		if want[i].rewrite && want[i].semantic {
			accepted++
		}
	}
	if accepted == 0 {
		t.Fatal("no real option verifies; the test would only see rejections")
	}

	// Options over tables the program does not have: distinct identities
	// that fail to apply.
	for i := 0; i < 10000; i++ {
		ghost := &Option{Kind: OptPipelet, Order: []string{fmt.Sprintf("ghost%d", i)}}
		if s.verifier.verify(ghost) || s.sem.verify(ghost) {
			t.Fatalf("option over a missing table verified: %v", ghost)
		}
	}
	if n := s.verifier.verdict.Len(); n > verdictMemoCap {
		t.Errorf("rewrite-verdict memo holds %d entries, cap %d", n, verdictMemoCap)
	}
	if n := s.sem.verdict.Len(); n > verdictMemoCap {
		t.Errorf("semantic-verdict memo holds %d entries, cap %d", n, verdictMemoCap)
	}

	before := s.Stats()
	for i, o := range real {
		if got := (verdict{s.verifier.verify(o), s.sem.verify(o)}); got != want[i] {
			t.Errorf("%v: verdict after eviction %+v, before %+v", o, got, want[i])
		}
	}
	after := s.Stats()
	if after.VerifyMisses != before.VerifyMisses+uint64(len(real)) ||
		after.DeepVerifyMisses != before.DeepVerifyMisses+uint64(len(real)) {
		t.Errorf("evicted options were answered from a memo: %+v -> %+v", before, after)
	}
}
