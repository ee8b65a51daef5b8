package opt

import (
	"fmt"
	"testing"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/synth"
)

// A long-lived session sees an unbounded stream of distinct options; its
// per-option verdict memo must stay at its cap, and an option evicted
// meanwhile must verify again to the same verdict.
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
	want := make([]bool, len(real))
	accepted := 0
	for i, o := range real {
		want[i] = s.verifier.verify(o)
		if want[i] {
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
		if s.verifier.verify(ghost) {
			t.Fatalf("option over a missing table verified: %v", ghost)
		}
	}
	if n := s.verifier.verdict.Len(); n > verdictMemoCap {
		t.Errorf("option-verdict memo holds %d entries, cap %d", n, verdictMemoCap)
	}

	before := s.Stats()
	for i, o := range real {
		if got := s.verifier.verify(o); got != want[i] {
			t.Errorf("%v: verdict after eviction %v, before %v", o, got, want[i])
		}
	}
	after := s.Stats()
	if after.VerifyMisses != before.VerifyMisses+uint64(len(real)) {
		t.Errorf("evicted options were answered from a memo: %+v -> %+v", before, after)
	}
}

// The unit-candidate memo is bounded like the verdict memos, and a unit
// evicted from it enumerates again to the same result.
func TestUnitMemoStaysBounded(t *testing.T) {
	prog := synth.Program(synth.ProgramSpec{Pipelets: 4, AvgLen: 2, Category: synth.HeavyDrop, Seed: 99})
	prof := synth.SynthesizeProfile(prog, synth.ProfileSpec{Seed: 100, Category: synth.HeavyDrop})
	cfg := DefaultConfig()
	cfg.TopKFrac = 1
	s, err := NewSession(prog, costmodel.BlueField2(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Search(prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Plan) == 0 {
		t.Fatal("search found no plan; the test would compare nothing")
	}
	// A daemon's worth of regroupings: unit keys the session will never
	// look up again.
	for i := 0; i < 3*unitMemoCap; i++ {
		s.memo.Put(fmt.Sprintf("g:ghost%d", i), &unitEntry{})
	}
	if n := s.memo.Len(); n > unitMemoCap {
		t.Fatalf("unit memo holds %d entries, cap %d", n, unitMemoCap)
	}
	before := s.Stats()
	again, err := s.Search(prof)
	if err != nil {
		t.Fatal(err)
	}
	if after := s.Stats(); after.UnitHits != before.UnitHits || after.UnitMisses == before.UnitMisses {
		t.Errorf("evicted units were answered from the memo: %+v -> %+v", before, after)
	}
	if PlanGain(again.Plan) != PlanGain(first.Plan) || fmt.Sprint(again.Plan) != fmt.Sprint(first.Plan) {
		t.Errorf("plan after eviction %v (gain %v), before %v (gain %v)",
			again.Plan, PlanGain(again.Plan), first.Plan, PlanGain(first.Plan))
	}
}
