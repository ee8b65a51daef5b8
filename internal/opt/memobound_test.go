package opt

import (
	"fmt"
	"runtime"
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

// What a session keeps of its candidate space is bounded by the partition:
// one skeleton per pipelet, built the first time the pipelet is searched and
// reused from then on — no cap, nothing to evict — whatever stream of
// profiles a daemon's lifetime feeds it, and its heap says so.
func TestSkeletonBoundedByPartition(t *testing.T) {
	prog := synth.Program(synth.ProgramSpec{Pipelets: 4, AvgLen: 2, Category: synth.HeavyDrop, Seed: 99})
	cfg := DefaultConfig()
	cfg.TopKFrac = 1
	s, err := NewSession(prog, costmodel.BlueField2(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.skels) != len(s.part.Pipelets) {
		t.Fatalf("%d skeleton slots for %d pipelets", len(s.skels), len(s.part.Pipelets))
	}
	search := func(round int) *SearchResult {
		cat := synth.Category(round % 4)
		res, err := s.Search(synth.SynthesizeProfile(prog, synth.ProfileSpec{Seed: uint64(100 + round), Category: cat}))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	for r := 0; r < 8; r++ {
		search(r)
	}
	settled, heapSettled := s.Stats(), heap()
	if settled.UnitMisses == 0 || settled.UnitMisses > uint64(len(s.part.Pipelets)) {
		t.Fatalf("%d skeletons built for %d pipelets", settled.UnitMisses, len(s.part.Pipelets))
	}
	plans := 0
	for r := 8; r < 408; r++ {
		plans += len(search(r).Plan)
	}
	if plans == 0 {
		t.Fatal("no round found a plan; the test searched nothing")
	}
	after := s.Stats()
	if after.UnitMisses != settled.UnitMisses {
		t.Errorf("skeletons rebuilt on a warm session: %d -> %d", settled.UnitMisses, after.UnitMisses)
	}
	if after.UnitHits <= settled.UnitHits {
		t.Errorf("400 rounds reused no skeleton: %+v -> %+v", settled, after)
	}
	if grown := int64(heap()) - int64(heapSettled); grown > 256<<10 {
		t.Errorf("live heap grew %d KB over 400 drifting rounds", grown>>10)
	}
}
