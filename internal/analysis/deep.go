// Deep (symbolic) analysis tier: value-range lints and differential
// semantic equivalence, both built on the internal/analysis/absint
// forward abstract interpreter. Everything here is opt-in — a deep
// Verifier (opt.Config.DeepVerify) and pipeleon -check -deep.
package analysis

import (
	"fmt"
	"sort"

	"pipeleon/internal/analysis/absint"
	"pipeleon/internal/diag"
	"pipeleon/internal/p4ir"
)

// Deep-lint rule codes (PL2xx: value-range semantic tier).
const (
	CodeAlwaysMissEntry = "PL201" // entry can never be selected (range-dead or dedup loser)
	CodeShadowedEntry   = "PL202" // entry strictly dominated by a higher-priority superset
	CodeDecidedBranch   = "PL203" // conditional decided under inferred ranges
	CodeDeadWrite       = "PL204" // field modified, then unconditionally dropped
	CodeProvenTruncate  = "PL205" // write provably truncates the operand's range
)

// Semantic-equivalence rule codes (SE00x: SemanticChecker.Verify verdicts).
const (
	CodeSemInput    = "SE001" // program not analyzable for semantic comparison
	CodeSemDrop     = "SE002" // drop behaviour differs in some path class
	CodeSemEgress   = "SE003" // an observable egress field range differs
	CodeSemPathLost = "SE004" // path-class feasibility differs
	CodeSemCoarse   = "SE005" // info: the path-class partition was coarsened (Verifier.Prove)
)

// LintDeep runs the symbolic lint tier over prog: the abstract
// interpreter infers per-node field ranges and the rules flag entries,
// branches, and writes that are provably dead or lossy under them. It
// returns only the PL2xx diagnostics — callers combine it with Lint.
// prog is well formed, checked by its maker (p4c, Load, DecodeBinary, a
// Builder); a shape absint rejects yields no deep diagnostics.
func LintDeep(prog *p4ir.Program) diag.List { return lintDeep(prog, nil) }

// lintDeep is LintDeep of a well-formed prog, compiling it against tables,
// the compiled tables of the program prog rewrites (nil: none).
func lintDeep(prog *p4ir.Program, tables *absint.Cache) diag.List {
	res, err := tables.Analyzer(prog).Analyze()
	if err != nil {
		return nil
	}
	var l diag.List

	for _, name := range p4ir.NewIndex(prog).Names() {
		nr := res.Nodes[name]
		if nr == nil || !nr.Reachable {
			continue // PL101's department
		}
		if c, ok := prog.Conds[name]; ok {
			if nr.CondKnown && nr.CondDecided {
				arm, dead := "true", c.FalseNext
				if !nr.CondTaken {
					arm, dead = "false", c.TrueNext
				}
				l.Add(CodeDecidedBranch, diag.Warn, name, "",
					"condition %q always evaluates %s under inferred ranges (the other arm%s is unreachable)",
					c.Expr, arm, armName(dead))
			}
			continue
		}
		t := prog.Tables[name]
		if _, isCache := t.CacheMeta(); isCache {
			continue // generated accelerator tables are checked by RW004/PL106
		}
		// Dedup losers and dominated entries (static shadow analysis).
		shadowed := map[int]bool{}
		for _, s := range nr.Shadows {
			shadowed[s.Entry] = true
			if s.Duplicate {
				l.Add(CodeAlwaysMissEntry, diag.Warn, name, "",
					"entry %d is never installed: %s", s.Entry, s)
			} else {
				l.Add(CodeShadowedEntry, diag.Warn, name, "",
					"entry %d can never win: %s", s.Entry, s)
			}
		}
		// Range-dead entries under the inferred incoming state.
		for ei, may := range nr.EntryMay {
			if !may && !shadowed[ei] {
				l.Add(CodeAlwaysMissEntry, diag.Warn, name, "",
					"entry %d can never match under inferred ranges", ei)
			}
		}
		// Writes that precede an unconditional drop in the same action are
		// unobservable (PL103 covers primitives after the drop).
		for _, act := range t.Actions {
			for i, pr := range act.Primitives {
				if pr.Decode().Kind != p4ir.PrimDrop {
					continue
				}
				for _, prev := range act.Primitives[:i] {
					if dst := prev.Decode().Dst; dst != "" {
						l.Add(CodeDeadWrite, diag.Warn, name, dst,
							"action %q modifies %s and then unconditionally drops the packet", act.Name, dst)
					}
				}
				break
			}
		}
	}

	for _, tr := range res.Truncations {
		l.Add(CodeProvenTruncate, diag.Warn, tr.Node, tr.Field,
			"action %q writes a value in [%d, %d] to the %d-bit field %s: the write always truncates",
			tr.Action, tr.Value.Lo, tr.Value.Hi, tr.Width, tr.Field)
	}

	l.Sort()
	return l
}

func armName(next string) string {
	if next == "" {
		return " (egress)"
	}
	return fmt.Sprintf(" toward %q", next)
}

// semClassBudget bounds the path-class enumeration: the number of forced
// conditionals is chosen so classes*nodes stays under this, capped at
// semMaxConds forced conditionals (the rest contribute both arms — the
// comparison stays sound, just coarser).
const (
	semClassBudget = 1 << 17
	semMaxConds    = 12
)

// SemanticChecker amortizes differential semantic verification over many
// candidate rewrites of one original program, the way RewriteChecker
// does for dependency ordering. Construction compiles the original's
// tables once (absint.Cache) and abstractly executes its path classes, all
// of them in one class tree; Verify then compiles only the tables a
// candidate generated or changed and runs the candidate's class tree. It
// remembers no verdicts — Verifier, which composes it with the other proof
// tiers, does. A table body is reused only for a table whose contents
// equal, when the candidate is compiled, those it was compiled from, so an
// entry edited in place is never read stale; the outcomes of the
// original's classes are, so after an entry update build a new checker
// (Verifier does, when the original's EntryVersion moved).
// Safe for concurrent use once built.
type SemanticChecker struct {
	origBroken bool
	conds      []string
	condsTotal int
	outcomes   []absint.ClassOutcome // per class, indexed by its bits over conds
	origFields []string
	tables     *absint.Cache
}

// NewSemanticChecker precomputes the original's per-path-class abstract
// outcomes. It and every candidate are well formed: their makers checked
// them.
func NewSemanticChecker(orig *p4ir.Program) *SemanticChecker {
	sc := &SemanticChecker{}
	conds := absint.CondNames(orig)
	sc.condsTotal = len(conds)
	n := len(conds)
	if n > semMaxConds {
		n = semMaxConds
	}
	nodes := orig.NumNodes()
	if nodes < 1 {
		nodes = 1
	}
	for n > 0 && (1<<n)*nodes > semClassBudget {
		n--
	}
	sc.conds = conds[:n]
	sc.origFields = writtenFields(orig)
	sc.tables = absint.NewCache(orig)
	outs, err := sc.tables.Original().ExecClasses(sc.conds)
	if err != nil {
		sc.origBroken = true
		return sc
	}
	sc.outcomes = outs
	return sc
}

// Verify proves the candidate program semantically equivalent to the
// original over the abstract packet space: for every path class of the
// original (a truth assignment over its branch conditions), both
// programs must agree on feasibility, drop behaviour, and the abstract
// range of every observable egress field. Disagreement yields Error
// diagnostics — the program pair may still be concretely equivalent
// (the abstraction over-approximates), but equivalence is no longer
// proven, which is what a deploy gate needs to block on.
func (sc *SemanticChecker) Verify(opt *p4ir.Program) diag.List {
	var l diag.List
	if sc.origBroken {
		l.Add(CodeSemInput, diag.Error, "", "",
			"original program is not analyzable; semantic comparison impossible")
		return l
	}
	fields := writtenFields(opt, sc.origFields...)
	outs, err := sc.tables.Analyzer(opt).ExecClasses(sc.conds)
	if err != nil {
		l.Add(CodeSemInput, diag.Error, "", "",
			"optimized program is not analyzable: %v", err)
		return l
	}
	for bits, orig := range sc.outcomes {
		out := outs[bits]
		if out.Feasible != orig.Feasible {
			l.Add(CodeSemPathLost, diag.Error, "", "",
				"path class %s: feasibility changed (orig %v, optimized %v)",
				classLabel(sc.conds, bits), orig.Feasible, out.Feasible)
			continue
		}
		if !out.Feasible {
			continue
		}
		if out.MayDrop != orig.MayDrop || out.MustDrop != orig.MustDrop {
			l.Add(CodeSemDrop, diag.Error, "", "",
				"path class %s: drop behaviour differs (orig may=%v must=%v, optimized may=%v must=%v)",
				classLabel(sc.conds, bits),
				orig.MayDrop, orig.MustDrop, out.MayDrop, out.MustDrop)
		}
		a, b := orig.Egress, out.Egress
		if (a == nil) != (b == nil) {
			l.Add(CodeSemEgress, diag.Error, "", "",
				"path class %s: one program never egresses", classLabel(sc.conds, bits))
			continue
		}
		if a == nil {
			continue
		}
		for _, f := range fields {
			if va, vb := a.Get(f), b.Get(f); !va.Eq(vb) {
				l.Add(CodeSemEgress, diag.Error, "", f,
					"path class %s: egress range of %s differs (orig [%d,%d] mask %#x/%#x, optimized [%d,%d] mask %#x/%#x)",
					classLabel(sc.conds, bits), f,
					va.Lo, va.Hi, va.KnownMask, va.KnownVal,
					vb.Lo, vb.Hi, vb.KnownMask, vb.KnownVal)
			}
		}
	}
	l.Sort()
	return l
}

// Strength reports how fine the path-class partition is: forced of the
// original's total conditionals each split the packet space in two (the
// rest contribute both arms to every class). forced < total means the
// semMaxConds / semClassBudget bound coarsened the comparison.
func (sc *SemanticChecker) Strength() (forced, total int) {
	return len(sc.conds), sc.condsTotal
}

// classLabel names class bits over conds: each conditional, negated where
// the class takes its false arm.
func classLabel(conds []string, bits int) string {
	if len(conds) == 0 {
		return "⊤"
	}
	s := ""
	for i, c := range conds {
		if i > 0 {
			s += " "
		}
		if bits>>i&1 == 1 {
			s += c
		} else {
			s += "!" + c
		}
	}
	return s
}

// writtenFields returns the sorted set of fields any action of prog can
// write, plus also: the observable surface SemanticChecker.Verify compares.
func writtenFields(prog *p4ir.Program, also ...string) []string {
	set := map[string]bool{}
	for _, f := range also {
		set[f] = true
	}
	for _, t := range prog.Tables {
		for _, a := range t.Actions {
			for _, f := range a.WriteSet() {
				set[f] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}
