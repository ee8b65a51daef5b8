package analysis

import (
	"strings"
	"testing"

	"pipeleon/internal/diag"
	"pipeleon/internal/p4ir"
)

func deepCodes(l diag.List) map[string]int {
	out := map[string]int{}
	for _, d := range l {
		out[d.Code]++
	}
	return out
}

func TestLintDeepFindsRangeDeadEntriesAndDecidedBranches(t *testing.T) {
	prog := p4ir.NewBuilder("deep").
		Cond("c", "ipv4.ttl > 10", "t", "").
		Table(p4ir.TableSpec{
			Name: "t",
			Keys: []p4ir.Key{{Field: "ipv4.ttl", Kind: p4ir.MatchExact, Width: 8}},
			Actions: []*p4ir.Action{
				p4ir.ForwardAction("fwd"),
				p4ir.NoopAction("miss"),
			},
			Entries: []p4ir.Entry{
				{Match: []p4ir.MatchValue{{Value: 5}}, Action: "fwd"},  // dead under ttl > 10
				{Match: []p4ir.MatchValue{{Value: 64}}, Action: "fwd"}, // live
			},
			Next: "c2",
		}).
		Cond("c2", "ipv4.ttl <= 10", "t2", "").
		Table(p4ir.TableSpec{
			Name:    "t2",
			Actions: []*p4ir.Action{p4ir.NoopAction("noop")},
		}).
		Root("c").
		MustBuild()

	l := LintDeep(prog)
	codes := deepCodes(l)
	if codes[CodeAlwaysMissEntry] != 1 {
		t.Errorf("want 1 PL201, got %v\n%s", codes, strings.Join(l.Strings(), "\n"))
	}
	if codes[CodeDecidedBranch] != 1 {
		t.Errorf("want 1 PL203 (c2 decided false), got %v\n%s", codes, strings.Join(l.Strings(), "\n"))
	}
	if l.HasErrors() {
		t.Error("deep lints are warnings, not errors")
	}
}

func TestLintDeepFindsShadowedAndDuplicateEntries(t *testing.T) {
	prog := p4ir.NewBuilder("shadow").
		Table(p4ir.TableSpec{
			Name: "t",
			Keys: []p4ir.Key{{Field: "ipv4.tos", Kind: p4ir.MatchTernary, Width: 8}},
			Actions: []*p4ir.Action{
				p4ir.NoopAction("a"),
			},
			Entries: []p4ir.Entry{
				{Priority: 1, Match: []p4ir.MatchValue{{Value: 0x10, Mask: 0xff}}, Action: "a"}, // duplicate loser
				{Priority: 3, Match: []p4ir.MatchValue{{Value: 0x10, Mask: 0xff}}, Action: "a"}, // dominated by wildcard
				{Priority: 9, Match: []p4ir.MatchValue{{Value: 0, Mask: 0}}, Action: "a"},       // wildcard winner
			},
		}).
		MustBuild()

	codes := deepCodes(LintDeep(prog))
	if codes[CodeAlwaysMissEntry] != 1 || codes[CodeShadowedEntry] != 1 {
		t.Errorf("want 1 PL201 + 1 PL202, got %v", codes)
	}
}

func TestLintDeepFindsDeadWritesAndProvenTruncation(t *testing.T) {
	prog := p4ir.NewBuilder("writes").
		Table(p4ir.TableSpec{
			Name: "t",
			Actions: []*p4ir.Action{
				p4ir.NewAction("poison",
					p4ir.Prim("modify_field", "meta.mark", "1"),
					p4ir.Prim("drop")),
				p4ir.NewAction("trunc",
					// 0x1ff can never fit ipv4.ttl's 8 bits.
					p4ir.Prim("modify_field", "ipv4.ttl", "0x1ff")),
			},
			DefaultAction: "trunc",
		}).
		MustBuild()

	l := LintDeep(prog)
	codes := deepCodes(l)
	if codes[CodeDeadWrite] != 1 {
		t.Errorf("want 1 PL204, got %v\n%s", codes, strings.Join(l.Strings(), "\n"))
	}
	if codes[CodeProvenTruncate] != 1 {
		t.Errorf("want 1 PL205, got %v\n%s", codes, strings.Join(l.Strings(), "\n"))
	}

	// An in-range write is not flagged.
	clean := p4ir.NewBuilder("clean").
		Table(p4ir.TableSpec{
			Name: "t",
			Actions: []*p4ir.Action{
				p4ir.NewAction("ok", p4ir.Prim("modify_field", "ipv4.ttl", "64")),
			},
		}).
		MustBuild()
	if l := LintDeep(clean); len(l) != 0 {
		t.Errorf("clean program flagged: %s", strings.Join(l.Strings(), "\n"))
	}
}

// twoTableProg builds root -> t1 -> t2 where the tables write disjoint
// metadata; firstVal parameterizes t1's write so tests can introduce a
// semantic change.
func twoTableProg(name, order string, firstVal string) *p4ir.Program {
	t1 := p4ir.TableSpec{
		Name: "t1",
		Keys: []p4ir.Key{{Field: "tcp.dport", Kind: p4ir.MatchExact, Width: 16}},
		Actions: []*p4ir.Action{
			p4ir.NewAction("m1", p4ir.Prim("modify_field", "meta.a", firstVal)),
			p4ir.NoopAction("miss1"),
		},
		DefaultAction: "miss1",
		Entries:       []p4ir.Entry{{Match: []p4ir.MatchValue{{Value: 80}}, Action: "m1"}},
	}
	t2 := p4ir.TableSpec{
		Name: "t2",
		Keys: []p4ir.Key{{Field: "ipv4.proto", Kind: p4ir.MatchExact, Width: 8}},
		Actions: []*p4ir.Action{
			p4ir.NewAction("m2", p4ir.Prim("modify_field", "meta.b", "7")),
			p4ir.NoopAction("miss2"),
		},
		DefaultAction: "miss2",
		Entries:       []p4ir.Entry{{Match: []p4ir.MatchValue{{Value: 6}}, Action: "m2"}},
	}
	b := p4ir.NewBuilder(name)
	if order == "t1t2" {
		t1.Next = "t2"
		b.Table(t1).Table(t2).Root("t1")
	} else {
		t2.Next = "t1"
		b.Table(t2).Table(t1).Root("t2")
	}
	return b.MustBuild()
}

func TestVerifySemanticsAcceptsEquivalentReorder(t *testing.T) {
	orig := twoTableProg("orig", "t1t2", "3")
	reordered := twoTableProg("opt", "t2t1", "3")
	if l := VerifySemantics(orig, reordered); l.HasErrors() {
		t.Errorf("independent reorder rejected:\n%s", strings.Join(l.Strings(), "\n"))
	}
	if l := VerifySemantics(orig, orig); l.HasErrors() {
		t.Errorf("self-comparison rejected:\n%s", strings.Join(l.Strings(), "\n"))
	}
}

func TestVerifySemanticsRejectsChangedWrite(t *testing.T) {
	orig := twoTableProg("orig", "t1t2", "3")
	changed := twoTableProg("opt", "t1t2", "4")
	l := VerifySemantics(orig, changed)
	if !l.HasErrors() {
		t.Fatal("changed write accepted")
	}
	if deepCodes(l)[CodeSemEgress] == 0 {
		t.Errorf("want SE003, got:\n%s", strings.Join(l.Strings(), "\n"))
	}
}

func TestVerifySemanticsRejectsDropChange(t *testing.T) {
	orig := twoTableProg("orig", "t1t2", "3")
	dropper := twoTableProg("opt", "t1t2", "3")
	dropper.Tables["t2"].Actions[0] = p4ir.NewAction("m2", p4ir.Prim("drop"))
	l := VerifySemantics(orig, dropper)
	if !l.HasErrors() || deepCodes(l)[CodeSemDrop] == 0 {
		t.Errorf("want SE002, got:\n%s", strings.Join(l.Strings(), "\n"))
	}
}

func TestVerifySemanticsRejectsLostPathClass(t *testing.T) {
	mk := func(expr string) *p4ir.Program {
		return p4ir.NewBuilder("p").
			Cond("c", expr, "t", "").
			Table(p4ir.TableSpec{
				Name: "t",
				Actions: []*p4ir.Action{
					p4ir.NewAction("m", p4ir.Prim("modify_field", "meta.a", "1")),
				},
			}).
			Root("c").
			MustBuild()
	}
	orig := mk("ipv4.proto == 6")
	opt := mk("false") // the true-arm class becomes infeasible
	l := VerifySemantics(orig, opt)
	if !l.HasErrors() || deepCodes(l)[CodeSemPathLost] == 0 {
		t.Errorf("want SE004, got:\n%s", strings.Join(l.Strings(), "\n"))
	}
}

func TestVerifySemanticsStructuralGate(t *testing.T) {
	orig := twoTableProg("orig", "t1t2", "3")
	broken := twoTableProg("opt", "t1t2", "3")
	broken.Tables["t1"].BaseNext = "missing"
	l := VerifySemantics(orig, broken)
	if !l.HasErrors() || deepCodes(l)[CodeSemInput] == 0 {
		t.Errorf("want SE001, got:\n%s", strings.Join(l.Strings(), "\n"))
	}
}

// The checker must accept its own rewrites: a cache rewrite leaves the
// cover tables on the miss path, which is the deploy-time semantics.
func TestVerifySemanticsAcceptsAnnotationOnlyChange(t *testing.T) {
	orig := twoTableProg("orig", "t1t2", "3")
	pinned := twoTableProg("opt", "t1t2", "3")
	pinned.Tables["t1"].SetMemTier("dram")
	if l := VerifySemantics(orig, pinned); l.HasErrors() {
		t.Errorf("annotation-only change rejected:\n%s", strings.Join(l.Strings(), "\n"))
	}
}
