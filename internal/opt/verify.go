package opt

import (
	"pipeleon/internal/analysis"
	"pipeleon/internal/memo"
	"pipeleon/internal/p4ir"
)

// verdictMemoCap bounds the per-option verdict memo. A round verifies the
// handful of options the knapsack selected, and the hot ones recur round
// after round; the cap only stops a long-lived session from remembering
// every option it ever saw.
const verdictMemoCap = 4096

// optionVerifier decides, at search time, whether one option alone is a
// sound rewrite of the session's program. The proof is analysis.Verifier's
// — dependency ordering always, packet semantics behind a deep verifier —
// and what this type adds is how an option gets there cheaply:
//
//   - the option applies, once, to a scratch clone that shares the
//     immutable bulk of the program (keys, actions, entries) with the
//     original,
//   - the dependency tier looks only at edges touching the rewritten
//     subgraph (Verifier.ProveTouched), and
//   - the verdict is memoized per option identity: it depends on the
//     program and the option, never on the profile.
//
// A shallow verdict reads the program's structure and effects only, so it
// stays valid until evicted. A deep one also reads the table entries, which
// change in place through p4ir's entry operations; the memo then follows
// the program's EntryVersion. Verdicts are identical to VerifyOption
// (pinned by TestPlanVerifierMatchesVerifyOption).
type optionVerifier struct {
	prog    *p4ir.Program
	cfg     Config
	v       *analysis.Verifier
	preds   map[string][]string // node -> original nodes holding a successor reference to it
	verdict *memo.Table[string, bool]
	version uint64 // the program's entry version the verdicts were computed at
}

// predecessors indexes, for every node, the nodes referencing it as a
// successor. redirect rewires exactly these when a rewrite replaces a
// subgraph's entry, so they belong to the touched set.
func predecessors(prog *p4ir.Program) map[string][]string {
	preds := map[string][]string{}
	add := func(from, to string) {
		if to != "" {
			preds[to] = append(preds[to], from)
		}
	}
	for name, t := range prog.Tables {
		add(name, t.BaseNext)
		for _, nxt := range t.ActionNext {
			add(name, nxt)
		}
		if spec, ok := t.CacheMeta(); ok {
			add(name, spec.HitNext)
			add(name, spec.MissNext)
		}
	}
	for name, c := range prog.Conds {
		add(name, c.TrueNext)
		add(name, c.FalseNext)
	}
	return preds
}

// verify reports whether o's rewrite is provably sound — the same verdict
// as VerifyOption(prog, o, cfg) plus, behind a deep verifier, the semantic
// proof — memoized.
func (ov *optionVerifier) verify(o *Option) bool {
	if ov.v.IsDeep() {
		if e := ov.prog.EntryVersion(); ov.version != e {
			ov.version = e
			ov.verdict.Reset()
		}
	}
	key := o.String()
	if r, ok := ov.verdict.Get(key); ok {
		return r
	}
	// Made here, the scratch rewrite is checked here, as Apply checks its own.
	scratch := ov.prog.Clone()
	r := applyOption(scratch, o, NewCounterMap(), ov.cfg) == nil && scratch.Validate() == nil
	if r {
		touched := map[string]bool{}
		ov.touch(touched, o)
		r = !ov.v.ProveTouched(scratch, touched).HasErrors()
	}
	ov.verdict.Put(key, r)
	return r
}

// touch collects every original node the option rewires, deletes, or
// covers: the reordered span itself, the old subgraph entry, and the
// external predecessors redirect rewires to the new entry. Generated
// tables need no entry — dependency edges connect original nodes only.
func (ov *optionVerifier) touch(set map[string]bool, o *Option) {
	switch o.Kind {
	case OptPipelet:
		for _, t := range o.Order {
			set[t] = true
		}
		head := o.Pipelet.Head()
		set[head] = true
		for _, p := range ov.preds[head] {
			set[p] = true
		}
	case OptGroupCombo:
		for _, m := range o.Members {
			if m != nil {
				ov.touch(set, m)
			}
		}
	case OptGroupCache:
		for _, t := range o.Group.Tables() {
			set[t] = true
		}
		for _, b := range o.Group.Branches {
			set[b] = true
		}
		set[o.Group.Branch] = true
		for _, p := range ov.preds[o.Group.Branch] {
			set[p] = true
		}
	}
}
