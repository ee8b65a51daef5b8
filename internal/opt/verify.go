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
// stays valid until evicted. A deep one also reads the table entries the
// runtime mutates in place; the memo then follows the verifier's entry
// epoch. Verdicts are identical to VerifyOption (pinned by
// TestPlanVerifierMatchesVerifyOption).
type optionVerifier struct {
	prog    *p4ir.Program
	cfg     Config
	v       *analysis.Verifier
	preds   map[string][]string // node -> original nodes holding a successor reference to it
	verdict *memo.Table[string, bool]
	epoch   uint64 // the verifier's entry epoch the verdicts were computed at
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

// scratchClone builds a program the apply path may mutate freely while
// sharing the immutable bulk with prog. The apply path only ever writes a
// table's BaseNext (struct field), ActionNext and Annotations (maps),
// creates or deletes whole tables, and rewrites conditional successors —
// it never mutates an existing table's Keys, Actions, Entries, or
// DefaultAction — so a per-table struct copy with fresh ActionNext and
// Annotations maps suffices.
func scratchClone(prog *p4ir.Program) *p4ir.Program {
	out := &p4ir.Program{
		Name:   prog.Name + ".optimized",
		Root:   prog.Root,
		Tables: make(map[string]*p4ir.Table, len(prog.Tables)),
		Conds:  make(map[string]*p4ir.Conditional, len(prog.Conds)),
	}
	for name, t := range prog.Tables {
		ct := *t
		if t.ActionNext != nil {
			ct.ActionNext = make(map[string]string, len(t.ActionNext))
			for a, n := range t.ActionNext {
				ct.ActionNext[a] = n
			}
		}
		if t.Annotations != nil {
			ct.Annotations = make(map[string]string, len(t.Annotations))
			for k, v := range t.Annotations {
				ct.Annotations[k] = v
			}
		}
		out.Tables[name] = &ct
	}
	for name, c := range prog.Conds {
		cc := *c
		out.Conds[name] = &cc
	}
	return out
}

// verify reports whether o's rewrite is provably sound — the same verdict
// as VerifyOption(prog, o, cfg) plus, behind a deep verifier, the semantic
// proof — memoized.
func (ov *optionVerifier) verify(o *Option) bool {
	if ov.v.IsDeep() {
		if e := ov.v.Epoch(); ov.epoch != e {
			ov.epoch = e
			ov.verdict.Reset()
		}
	}
	key := o.String()
	if r, ok := ov.verdict.Get(key); ok {
		return r
	}
	// Apply's post-hoc Validate is subsumed by the proof: every structural
	// diagnostic is Error-severity, so Validate fails exactly when the
	// proof's structure tier does.
	scratch := scratchClone(ov.prog)
	r := applyOption(scratch, o, NewCounterMap(), ov.cfg) == nil
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
	case OptPlacement:
		for t := range o.Placement.Tier {
			set[t] = true
		}
		for t := range o.Placement.Copies {
			set[t] = true
		}
	}
}
