package opt

import (
	"sync"
	"sync/atomic"

	"pipeleon/internal/analysis"
	"pipeleon/internal/diag"
	"pipeleon/internal/memo"
	"pipeleon/internal/p4ir"
)

// semVerifier is the deep-gate counterpart of planVerifier: it proves
// each candidate option semantically equivalent to the original program
// (analysis.VerifySemantics — per-path-class drop behaviour and egress
// field ranges under abstract interpretation), amortized the same way:
//
//   - the original program's path classes and their abstract outcomes are
//     enumerated once (analysis.SemanticChecker),
//   - each candidate applies to a cheap scratch clone, and
//   - verdicts are memoized per option identity — semantics depend only
//     on the program and the option, never on the profile.
//
// The one checker also serves the joint check of an applied plan and the
// runtime's deploy gate (Session.VerifySemantics), so its program-digest
// memo proves each distinct program once across all three.
//
// The runtime mutates the session's program in place when entries are
// inserted or deleted. The checker's per-class outcomes and both memos
// are functions of those entries, so entriesChanged advances an epoch and
// the next proof rebuilds the checker and drops the verdicts.
//
// It exists only when Config.DeepVerify is set; a nil *semVerifier means
// the deep gate is off and every verify call is vacuously true.
type semVerifier struct {
	prog    *p4ir.Program
	cfg     Config
	verdict *memo.Table[string, bool]
	epoch   atomic.Uint64 // entry updates seen

	mu    sync.Mutex // guards the fields below
	sc    *analysis.SemanticChecker
	built uint64 // epoch sc was built at
	// Program-memo counters of the checkers rebuilds retired.
	retiredHits, retiredMisses uint64
}

func newSemVerifier(prog *p4ir.Program, cfg Config) *semVerifier {
	return newSemVerifierShared(prog, cfg, analysis.NewSemanticChecker(prog))
}

// newSemVerifierShared reuses a prebuilt semantic checker — it depends
// only on the program, so a sweep's points share it.
func newSemVerifierShared(prog *p4ir.Program, cfg Config, sc *analysis.SemanticChecker) *semVerifier {
	return &semVerifier{
		prog:    prog,
		cfg:     cfg,
		sc:      sc,
		verdict: memo.New[string, bool](verdictMemoCap),
	}
}

// entriesChanged records that the program's entries were mutated in
// place. The rebuild happens lazily, so a burst of updates costs one.
func (v *semVerifier) entriesChanged() {
	if v != nil {
		v.epoch.Add(1)
	}
}

// checker returns the semantic checker for the program's current entries,
// rebuilding it (and dropping the option verdicts) when they changed.
func (v *semVerifier) checker() *analysis.SemanticChecker {
	v.mu.Lock()
	defer v.mu.Unlock()
	if e := v.epoch.Load(); e != v.built {
		h, m := v.sc.MemoStats()
		v.retiredHits += h
		v.retiredMisses += m
		v.sc = analysis.NewSemanticChecker(v.prog)
		v.verdict.Reset()
		v.built = e
	}
	return v.sc
}

// verify reports whether o's rewrite provably preserves the original
// program's packet semantics. A nil receiver (deep gate off) accepts
// everything. Safe for concurrent use.
func (v *semVerifier) verify(o *Option) bool {
	if v == nil {
		return true
	}
	sc := v.checker()
	key := o.String()
	if r, ok := v.verdict.Get(key); ok {
		return r
	}
	scratch := scratchClone(v.prog)
	r := applyOption(scratch, o, NewCounterMap(), v.cfg) == nil && !sc.Verify(scratch).HasErrors()
	v.verdict.Put(key, r)
	return r
}

// verifyProgram proves an already-applied program (the joint check in
// SearchAndApply, the runtime's deploy gate) against the original,
// returning every diagnostic; nil on a nil receiver.
func (v *semVerifier) verifyProgram(prog *p4ir.Program) diag.List {
	if v == nil {
		return nil
	}
	return v.checker().Verify(prog)
}

// semStats are the verifier's counters: the option-verdict memo, the
// checker's program-digest memo (cumulative over rebuilds), and the proof
// strength of the current checker.
type semStats struct {
	hits, misses         uint64
	progHits, progMisses uint64
	forced, total        int
}

// stats snapshots the counters; zero on a nil receiver.
func (v *semVerifier) stats() semStats {
	if v == nil {
		return semStats{}
	}
	var st semStats
	st.hits, st.misses = v.verdict.Stats()
	v.mu.Lock()
	defer v.mu.Unlock()
	h, m := v.sc.MemoStats()
	st.progHits, st.progMisses = v.retiredHits+h, v.retiredMisses+m
	st.forced, st.total = v.sc.Strength()
	return st
}
