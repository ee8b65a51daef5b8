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

// Semantic-equivalence rule codes (SE00x: VerifySemantics verdicts).
const (
	CodeSemInput    = "SE001" // program not analyzable for semantic comparison
	CodeSemDrop     = "SE002" // drop behaviour differs in some path class
	CodeSemEgress   = "SE003" // an observable egress field range differs
	CodeSemPathLost = "SE004" // path-class feasibility differs
)

// LintDeep runs the symbolic lint tier over prog: the abstract
// interpreter infers per-node field ranges and the rules flag entries,
// branches, and writes that are provably dead or lossy under them. It
// returns only the PL2xx diagnostics — callers combine it with Lint.
// Programs with structural errors (or shapes absint rejects) yield no
// deep diagnostics; the structural tier already reports those.
func LintDeep(prog *p4ir.Program) diag.List {
	if sd := prog.StructuralDiagnostics(); sd.HasErrors() {
		return nil
	}
	res, err := absint.Analyze(prog)
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
		for _, s := range absint.TableShadows(t) {
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
// does for dependency ordering. Construction enumerates the original's
// path classes and abstractly executes each once; Verify then only
// executes the candidate. It remembers no verdicts — Verifier, which
// composes it with the other proof tiers, does. The original must not
// change while the checker is in use; after an entry update, build a new
// one. Safe for concurrent use once built.
type SemanticChecker struct {
	origBroken bool
	conds      []string
	condsTotal int
	classes    []semClass
	origFields []string
}

type semClass struct {
	forced  map[string]bool
	outcome absint.ClassOutcome
}

// NewSemanticChecker precomputes the original program's per-path-class
// abstract outcomes.
func NewSemanticChecker(orig *p4ir.Program) *SemanticChecker {
	sc := &SemanticChecker{}
	if orig.StructuralDiagnostics().HasErrors() {
		sc.origBroken = true
		return sc
	}
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
	an := absint.NewAnalyzer(orig)
	for bits := 0; bits < 1<<n; bits++ {
		forced := make(map[string]bool, n)
		for i, c := range sc.conds {
			forced[c] = bits>>i&1 == 1
		}
		out, err := an.Exec(forced)
		if err != nil {
			sc.origBroken = true
			return sc
		}
		sc.classes = append(sc.classes, semClass{forced: forced, outcome: out})
	}
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
	if sd := opt.StructuralDiagnostics(); sd.HasErrors() {
		l.Add(CodeSemInput, diag.Error, "", "",
			"optimized program has %d structural error(s); semantic comparison impossible", len(sd.Errors()))
		return l
	}
	fields := writtenFields(opt, sc.origFields...)
	an := absint.NewAnalyzer(opt)
	for ci := range sc.classes {
		cl := &sc.classes[ci]
		out, err := an.Exec(cl.forced)
		if err != nil {
			l.Add(CodeSemInput, diag.Error, "", "",
				"optimized program is not analyzable: %v", err)
			return l
		}
		if out.Feasible != cl.outcome.Feasible {
			l.Add(CodeSemPathLost, diag.Error, "", "",
				"path class %s: feasibility changed (orig %v, optimized %v)",
				classLabel(sc.conds, cl.forced), cl.outcome.Feasible, out.Feasible)
			continue
		}
		if !out.Feasible {
			continue
		}
		if out.MayDrop != cl.outcome.MayDrop || out.MustDrop != cl.outcome.MustDrop {
			l.Add(CodeSemDrop, diag.Error, "", "",
				"path class %s: drop behaviour differs (orig may=%v must=%v, optimized may=%v must=%v)",
				classLabel(sc.conds, cl.forced),
				cl.outcome.MayDrop, cl.outcome.MustDrop, out.MayDrop, out.MustDrop)
		}
		a, b := cl.outcome.Egress, out.Egress
		if (a == nil) != (b == nil) {
			l.Add(CodeSemEgress, diag.Error, "", "",
				"path class %s: one program never egresses", classLabel(sc.conds, cl.forced))
			continue
		}
		if a == nil {
			continue
		}
		for _, f := range fields {
			if va, vb := a.Get(f), b.Get(f); !va.Eq(vb) {
				l.Add(CodeSemEgress, diag.Error, "", f,
					"path class %s: egress range of %s differs (orig [%d,%d] mask %#x/%#x, optimized [%d,%d] mask %#x/%#x)",
					classLabel(sc.conds, cl.forced), f,
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

// VerifySemantics is the one-shot form of SemanticChecker: a
// differential symbolic check that the optimized program produces the
// same action/drop/field-write outcomes as the original over the joined
// abstract packet space of every path class.
func VerifySemantics(orig, opt *p4ir.Program) diag.List {
	return NewSemanticChecker(orig).Verify(opt)
}

func classLabel(conds []string, forced map[string]bool) string {
	if len(conds) == 0 {
		return "⊤"
	}
	s := ""
	for i, c := range conds {
		if i > 0 {
			s += " "
		}
		if forced[c] {
			s += c
		} else {
			s += "!" + c
		}
	}
	return s
}

// writtenFields returns the sorted set of fields any action of prog can
// write, plus also: the observable surface VerifySemantics compares.
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
