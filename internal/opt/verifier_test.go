package opt

import (
	"testing"

	"pipeleon/internal/analysis"
	"pipeleon/internal/costmodel"
	"pipeleon/internal/synth"
)

// deepSession is a deep session over a program whose search finds a plan.
func deepSession(t *testing.T) (*Session, *SearchResult, func() *SearchResult) {
	t.Helper()
	prog := synth.Program(synth.ProgramSpec{Pipelets: 4, AvgLen: 2, Category: synth.HeavyDrop, Seed: 99})
	prof := synth.SynthesizeProfile(prog, synth.ProfileSpec{Seed: 100, Category: synth.HeavyDrop})
	cfg := DefaultConfig()
	cfg.TopKFrac = 1
	cfg.DeepVerify = true
	s, err := NewSession(prog, costmodel.BlueField2(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	search := func() *SearchResult {
		res, err := s.Search(prof)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := search()
	if len(res.Plan) == 0 {
		t.Fatal("search found no plan; the test would count nothing")
	}
	s.ReScore(prof, res.Plan)
	return s, res, search
}

// Behind a deep verifier an option is still applied and proven once: one
// miss of the one option memo per distinct option, whatever asks (the
// search, a later search, the re-score), and no whole-program proof — the
// scratch program is not digested for a memo the option memo makes
// useless. Whole programs are proven by Materialize and the gate only.
func TestOptionAppliedOncePerVerdict(t *testing.T) {
	s, res, search := deepSession(t)
	first := s.Stats()
	// Every selected option was verified (none is refused: zero false
	// positives), each once.
	if first.VerifyMisses != uint64(len(res.Plan)) {
		t.Errorf("%d option-memo misses for a plan of %d options", first.VerifyMisses, len(res.Plan))
	}
	if first.VerifyHits < uint64(len(res.Plan)) {
		t.Errorf("re-score proved the plan again: %+v", first)
	}
	if first.ProofMemoHits+first.ProofMemoMisses != 0 {
		t.Errorf("search asked for %d whole-program proofs", first.ProofMemoHits+first.ProofMemoMisses)
	}
	search()
	if again := s.Stats(); again.VerifyMisses != first.VerifyMisses || again.ProofMemoMisses != 0 {
		t.Errorf("a second search verified again: %+v -> %+v", first, again)
	}
	if _, err := s.Materialize(res.Plan); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.ProofMemoMisses != 1 || st.VerifyMisses != first.VerifyMisses {
		t.Errorf("Materialize is one proof of the joint program: %+v", st)
	}
}

// The program Materialize returns is proven under the digest it carries:
// the deploy gate's check of it looks the proof up and runs none.
func TestMaterializedProgramCostsGateOneLookup(t *testing.T) {
	s, res, _ := deepSession(t)
	rw, err := s.Materialize(res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if rw.Digest != rw.Program.Digest() {
		t.Fatal("the rewrite's digest is not its program's")
	}
	before := s.Stats()
	gate := analysis.NewGate(costmodel.BlueField2(), s.Verifier())
	if v := gate.Check(rw.Program, rw.Digest); v.Refusal != "" {
		t.Fatalf("gate refused a materialized program: %s", v.Refusal)
	}
	after := s.Stats()
	if after.ProofMemoMisses != before.ProofMemoMisses || after.ProofMemoHits != before.ProofMemoHits+1 {
		t.Errorf("gate check after Materialize: proofs %d -> %d run, %d -> %d looked up; want one lookup",
			before.ProofMemoMisses, after.ProofMemoMisses, before.ProofMemoHits, after.ProofMemoHits)
	}
}
