package analysis_test

import (
	"strings"
	"testing"

	"pipeleon/internal/analysis"
	"pipeleon/internal/diag"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
)

// Hand-built good and bad rewrites exercising each RW rule. Tables here
// carry explicit dataflow: writer(f) writes f, reader(f) reads f via an
// action operand.

func writer(name, field, next string) p4ir.TableSpec {
	return p4ir.TableSpec{
		Name:          name,
		Keys:          []p4ir.Key{{Field: "ipv4.tos", Kind: p4ir.MatchExact, Width: 8}},
		Actions:       []*p4ir.Action{p4ir.NewAction("w", p4ir.Prim("modify_field", field, "1")), p4ir.NoopAction("pass")},
		DefaultAction: "w",
		Next:          next,
	}
}

func reader(name, field, next string) p4ir.TableSpec {
	return p4ir.TableSpec{
		Name:          name,
		Keys:          []p4ir.Key{{Field: "ipv4.ttl", Kind: p4ir.MatchExact, Width: 8}},
		Actions:       []*p4ir.Action{p4ir.NewAction("r", p4ir.Prim("modify_field", "meta.out_"+name, field)), p4ir.NoopAction("pass")},
		DefaultAction: "r",
		Next:          next,
	}
}

func chain(t *testing.T, name string, specs ...p4ir.TableSpec) *p4ir.Program {
	t.Helper()
	prog, err := p4ir.ChainTables(name, specs)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func hasCode(l diag.List, code string) bool {
	for _, d := range l {
		if d.Code == code {
			return true
		}
	}
	return false
}

func TestVerifyIdentity(t *testing.T) {
	prog := chain(t, "id", writer("a", "meta.x", ""), reader("b", "meta.x", ""))
	if l := analysis.VerifyRewrite(prog, prog); l.HasErrors() {
		t.Errorf("identity rewrite rejected:\n%v", l)
	}
}

func TestVerifyLegalReorder(t *testing.T) {
	// a and b touch disjoint fields: swapping them preserves (the empty
	// set of) dependencies.
	orig := chain(t, "swap", writer("a", "meta.x", ""), writer("b", "meta.y", ""))
	opt := chain(t, "swap", writer("b", "meta.y", ""), writer("a", "meta.x", ""))
	if l := analysis.VerifyRewrite(orig, opt); l.HasErrors() {
		t.Errorf("legal reorder rejected:\n%v", l)
	}
}

func TestVerifyReversedDependency(t *testing.T) {
	// a writes meta.x, b reads it (RAW a→b). The reversed order must be
	// rejected with the witness field in the message.
	orig := chain(t, "raw", writer("a", "meta.x", ""), reader("b", "meta.x", ""))
	opt := chain(t, "raw", reader("b", "meta.x", ""), writer("a", "meta.x", ""))
	l := analysis.VerifyRewrite(orig, opt)
	if !hasCode(l, analysis.CodeBrokenDep) {
		t.Fatalf("reversed RAW dependency not reported:\n%v", l)
	}
	found := false
	for _, d := range l {
		if d.Code == analysis.CodeBrokenDep && d.Field == "meta.x" && strings.Contains(d.Message, "reversed") {
			found = true
		}
	}
	if !found {
		t.Errorf("no reversed-edge diagnostic with witness meta.x:\n%v", l)
	}
}

func TestVerifyLostDependency(t *testing.T) {
	// The optimized program parks the dependent tables on sibling branch
	// arms: neither orders before the other, so the edge is lost (not
	// reversed).
	orig := chain(t, "lost", writer("a", "meta.x", ""), reader("b", "meta.x", ""))
	a := writer("a", "meta.x", "")
	b := reader("b", "meta.x", "")
	opt := p4ir.NewBuilder("lost").
		Cond("c0", "ipv4.ttl > 0", "a", "b", "ipv4.ttl").
		Table(a).
		Table(b).
		Root("c0").
		MustBuild()
	l := analysis.VerifyRewrite(orig, opt)
	found := false
	for _, d := range l {
		if d.Code == analysis.CodeBrokenDep && strings.Contains(d.Message, "lost") {
			found = true
		}
	}
	if !found {
		t.Errorf("lost dependency not reported:\n%v", l)
	}
}

func TestVerifyDroppedTable(t *testing.T) {
	orig := chain(t, "drop", writer("a", "meta.x", ""), reader("b", "meta.x", ""))
	opt := chain(t, "drop", writer("a", "meta.x", ""))
	l := analysis.VerifyRewrite(orig, opt)
	if !hasCode(l, analysis.CodeLostNode) {
		t.Errorf("dropped table b not reported as RW001:\n%v", l)
	}
}

func TestVerifyBadCovers(t *testing.T) {
	// A merged table claiming to cover a table that never existed, and one
	// whose cover still executes.
	orig := chain(t, "cov", writer("a", "meta.x", ""), writer("b", "meta.y", ""))
	opt := chain(t, "cov", writer("a", "meta.x", ""), writer("b", "meta.y", ""))
	m := &p4ir.Table{
		Name:          "m",
		Keys:          []p4ir.Key{{Field: "ipv4.tos", Kind: p4ir.MatchExact, Width: 8}},
		Actions:       []*p4ir.Action{p4ir.NoopAction("pass")},
		DefaultAction: "pass",
		Annotations: map[string]string{
			p4ir.AnnotKind:   p4ir.KindMerged,
			p4ir.AnnotCovers: "ghost,a",
		},
	}
	opt.Tables["m"] = m
	opt.Tables["b"].BaseNext = "m"
	l := analysis.VerifyRewrite(orig, opt)
	if !hasCode(l, analysis.CodeBadCovers) {
		t.Errorf("inconsistent covers not reported as RW003:\n%v", l)
	}
	wantUnknown, wantLive := false, false
	for _, d := range l {
		if d.Code != analysis.CodeBadCovers {
			continue
		}
		if strings.Contains(d.Message, "ghost") {
			wantUnknown = true
		}
		if strings.Contains(d.Message, "still executes") {
			wantLive = true
		}
	}
	if !wantUnknown || !wantLive {
		t.Errorf("missing unknown-cover (%v) or still-live-cover (%v) diagnostics:\n%v", wantUnknown, wantLive, l)
	}
}

func TestVerifyUnsoundMerge(t *testing.T) {
	// a writes meta.x, b reads it: merging them into one table is illegal
	// (a merged table applies one combined action; the RAW chain between
	// members cannot be reproduced for entries where a misses).
	orig := chain(t, "merge", writer("a", "meta.x", ""), reader("b", "meta.x", ""))
	opt := p4ir.NewBuilder("merge").
		Table(p4ir.TableSpec{
			Name:          "m",
			Keys:          []p4ir.Key{{Field: "ipv4.tos", Kind: p4ir.MatchExact, Width: 8}},
			Actions:       []*p4ir.Action{p4ir.NoopAction("pass")},
			DefaultAction: "pass",
		}).
		Root("m").
		MustBuild()
	opt.Tables["m"].Annotations = map[string]string{
		p4ir.AnnotKind:   p4ir.KindMerged,
		p4ir.AnnotCovers: "a,b",
	}
	l := analysis.VerifyRewrite(orig, opt)
	if !hasCode(l, analysis.CodeUnsoundXform) {
		t.Errorf("unsound merge not reported as RW004:\n%v", l)
	}
}

func TestVerifySoundMerge(t *testing.T) {
	// Independent members in cover order: the merge verifies.
	orig := chain(t, "okmerge", writer("a", "meta.x", ""), writer("b", "meta.y", ""))
	opt := p4ir.NewBuilder("okmerge").
		Table(p4ir.TableSpec{
			Name: "m",
			Keys: []p4ir.Key{{Field: "ipv4.tos", Kind: p4ir.MatchExact, Width: 8}},
			Actions: []*p4ir.Action{p4ir.NewAction("w",
				p4ir.Prim("modify_field", "meta.x", "1"),
				p4ir.Prim("modify_field", "meta.y", "1"),
			), p4ir.NoopAction("pass")},
			DefaultAction: "w",
		}).
		Root("m").
		MustBuild()
	opt.Tables["m"].Annotations = map[string]string{
		p4ir.AnnotKind:   p4ir.KindMerged,
		p4ir.AnnotCovers: "a,b",
	}
	if l := analysis.VerifyRewrite(orig, opt); l.HasErrors() {
		t.Errorf("sound merge rejected:\n%v", l)
	}
}

func TestVerifyUnsoundCacheRewrite(t *testing.T) {
	// The optimized program fronts b with a cache that is not keyed on b's
	// match field: RW004.
	orig := chain(t, "badcache", writer("a", "meta.x", ""), exact("b", "tcp.dport", ""))
	a := writer("a", "meta.x", "c")
	bt := exact("b", "tcp.dport", "")
	opt := p4ir.NewBuilder("badcache").
		Table(a).
		Table(p4ir.TableSpec{
			Name:          "c",
			Keys:          []p4ir.Key{{Field: "ipv4.dstAddr", Kind: p4ir.MatchExact, Width: packet.FieldWidth("ipv4.dstAddr")}},
			Actions:       []*p4ir.Action{p4ir.NoopAction("cache_miss")},
			DefaultAction: "cache_miss",
			Next:          "b",
		}).
		Table(bt).
		Root("a").
		MustBuild()
	opt.Tables["c"].SetCacheMeta(p4ir.CacheSpec{
		Table: "c", Kind: p4ir.KindCache, Covers: []string{"b"}, MissNext: "b",
	})
	l := analysis.VerifyRewrite(orig, opt)
	if !hasCode(l, analysis.CodeUnsoundXform) {
		t.Errorf("unsound cache rewrite not reported as RW004:\n%v", l)
	}
}

func TestVerifySoundCacheRewrite(t *testing.T) {
	// Same shape but correctly keyed: clean. The cache table is an
	// accelerator, so it needs no counterpart in the original program.
	orig := chain(t, "okcache", writer("a", "meta.x", ""), exact("b", "tcp.dport", ""))
	a := writer("a", "meta.x", "c")
	bt := exact("b", "tcp.dport", "")
	opt := p4ir.NewBuilder("okcache").
		Table(a).
		Table(p4ir.TableSpec{
			Name:          "c",
			Keys:          []p4ir.Key{{Field: "tcp.dport", Kind: p4ir.MatchExact, Width: packet.FieldWidth("tcp.dport")}},
			Actions:       []*p4ir.Action{p4ir.NoopAction("cache_miss")},
			DefaultAction: "cache_miss",
			Next:          "b",
		}).
		Table(bt).
		Root("a").
		MustBuild()
	opt.Tables["c"].SetCacheMeta(p4ir.CacheSpec{
		Table: "c", Kind: p4ir.KindCache, Covers: []string{"b"}, MissNext: "b",
	})
	if l := analysis.VerifyRewrite(orig, opt); l.HasErrors() {
		t.Errorf("sound cache rewrite rejected:\n%v", l)
	}
}

func TestVerifyInvalidInputs(t *testing.T) {
	good := chain(t, "g", writer("a", "meta.x", ""))
	bad := p4ir.NewProgram("bad")
	bad.Root = "t"
	bad.Tables["t"] = &p4ir.Table{
		Name:          "t",
		Actions:       []*p4ir.Action{p4ir.NoopAction("pass")},
		DefaultAction: "pass",
		BaseNext:      "missing",
	}
	if l := analysis.VerifyRewrite(bad, good); !hasCode(l, analysis.CodeVerifyInput) {
		t.Errorf("invalid original not reported as RW000:\n%v", l)
	}
	// An invalid optimized program surfaces its own structural diagnostics.
	if l := analysis.VerifyRewrite(good, bad); !l.HasErrors() {
		t.Error("invalid optimized program verified clean")
	}
}

func TestVerifyTierAnnotations(t *testing.T) {
	mk := func() *p4ir.Program {
		prog := chain(t, "tiers", writer("a", "meta.x", ""), reader("b", "meta.x", ""))
		prog.Tables["a"].Unsupported = true // floor 1
		return prog
	}
	orig := mk()

	// Sound placement: floored table annotated at (or above) its floor,
	// floor-0 table replicated.
	opt := mk()
	opt.Tables["a"].Annotations = map[string]string{p4ir.AnnotTier: "2"}
	opt.Tables["b"].Annotations = map[string]string{p4ir.AnnotTierCopy: "1"}
	if l := analysis.VerifyRewrite(orig, opt); l.HasErrors() {
		t.Errorf("sound tier placement rejected:\n%v", l)
	}

	// RW005: assignment below the floor.
	opt = mk()
	opt.Tables["a"].Annotations = map[string]string{p4ir.AnnotTier: "0"}
	if l := analysis.VerifyRewrite(orig, opt); !hasCode(l, analysis.CodeTierFloor) {
		t.Errorf("below-floor assignment not reported as RW005:\n%v", l)
	}

	// RW005: replicating a floored table (a replica runs on tier 0 too).
	opt = mk()
	opt.Tables["a"].Annotations = map[string]string{p4ir.AnnotTierCopy: "1"}
	if l := analysis.VerifyRewrite(orig, opt); !hasCode(l, analysis.CodeTierFloor) {
		t.Errorf("replicated floored table not reported as RW005:\n%v", l)
	}

	// RW006: replicating sticky state.
	orig2 := mk()
	orig2.Tables["b"].Sticky = true
	opt = mk()
	opt.Tables["b"].Sticky = true
	opt.Tables["b"].Annotations = map[string]string{p4ir.AnnotTierCopy: "1"}
	if l := analysis.VerifyRewrite(orig2, opt); !hasCode(l, analysis.CodeStickyCopied) {
		t.Errorf("replicated sticky table not reported as RW006:\n%v", l)
	}

	// RW007: malformed annotation value.
	opt = mk()
	opt.Tables["b"].Annotations = map[string]string{p4ir.AnnotTier: "fastest"}
	if l := analysis.VerifyRewrite(orig, opt); !hasCode(l, analysis.CodeBadTier) {
		t.Errorf("malformed tier annotation not reported as RW007:\n%v", l)
	}
}
