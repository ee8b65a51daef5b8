package opt

import (
	"pipeleon/internal/analysis"
	"pipeleon/internal/memo"
	"pipeleon/internal/p4ir"
)

// verdictMemoCap bounds the per-option verdict memos of planVerifier and
// semVerifier. A round verifies the handful of options the knapsack
// selected, and the hot ones recur round after round; the cap only stops a
// long-lived session from remembering every option it ever saw.
const verdictMemoCap = 4096

// planVerifier amortizes option verification across the many candidates a
// warm session checks against one original program. VerifyOption pays for
// a full program clone (Apply) plus a from-scratch dependency analysis of
// both programs (analysis.VerifyRewrite) per option; the verifier instead
//
//   - precomputes the original program's dependency structure once
//     (analysis.RewriteChecker),
//   - applies each candidate to a cheap scratch clone that shares the
//     immutable bulk of the program (keys, actions, entries) with the
//     original, and
//   - restricts the dependency-ordering check to edges touching the
//     rewritten subgraph, which is sound because an edge between two
//     untouched nodes keeps its original wiring and relative order,
//
// and memoizes the verdict per option identity — verification depends
// only on the program and the option, never on the profile, so a verdict
// stays valid until evicted. Verdicts are identical to VerifyOption
// (pinned by TestPlanVerifierMatchesVerifyOption).
type planVerifier struct {
	prog    *p4ir.Program
	cfg     Config
	rc      *analysis.RewriteChecker
	preds   map[string][]string // node -> original nodes holding a successor reference to it
	verdict *memo.Table[string, bool]
}

func newPlanVerifier(prog *p4ir.Program, cfg Config) *planVerifier {
	return newPlanVerifierShared(prog, cfg, analysis.NewRewriteChecker(prog), predecessors(prog))
}

// newPlanVerifierShared reuses a prebuilt checker and predecessor index —
// both depend only on the program, so a sweep's points (which differ in
// cfg, and therefore need separate verdict memos) share them.
func newPlanVerifierShared(prog *p4ir.Program, cfg Config, rc *analysis.RewriteChecker, preds map[string][]string) *planVerifier {
	return &planVerifier{
		prog:    prog,
		cfg:     cfg,
		rc:      rc,
		preds:   preds,
		verdict: memo.New[string, bool](verdictMemoCap),
	}
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

// verify reports whether o's rewrite provably preserves the original
// program's dependency structure — the same verdict as
// VerifyOption(prog, o, cfg), memoized. Safe for concurrent use.
func (v *planVerifier) verify(o *Option) bool {
	key := o.String()
	if r, ok := v.verdict.Get(key); ok {
		return r
	}
	r := v.check(o)
	v.verdict.Put(key, r)
	return r
}

func (v *planVerifier) check(o *Option) bool {
	scratch := scratchClone(v.prog)
	if err := applyOption(scratch, o, NewCounterMap(), v.cfg); err != nil {
		return false
	}
	// Apply's post-hoc Validate is subsumed by the checker: every
	// structural diagnostic is Error-severity, so Validate fails exactly
	// when StructuralDiagnostics has errors, which VerifyTouched checks
	// first.
	touched := map[string]bool{}
	v.touch(touched, o)
	return !v.rc.VerifyTouched(scratch, touched).HasErrors()
}

// touch collects every original node the option rewires, deletes, or
// covers: the reordered span itself, the old subgraph entry, and the
// external predecessors redirect rewires to the new entry. Generated
// tables need no entry — dependency edges connect original nodes only.
func (v *planVerifier) touch(set map[string]bool, o *Option) {
	switch o.Kind {
	case OptPipelet:
		for _, t := range o.Order {
			set[t] = true
		}
		head := o.Pipelet.Head()
		set[head] = true
		for _, p := range v.preds[head] {
			set[p] = true
		}
	case OptGroupCombo:
		for _, m := range o.Members {
			if m != nil {
				v.touch(set, m)
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
		for _, p := range v.preds[o.Group.Branch] {
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

// stats returns the memo hit/miss counters.
func (v *planVerifier) stats() (hits, misses uint64) { return v.verdict.Stats() }
