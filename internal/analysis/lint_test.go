package analysis_test

import (
	"testing"

	"pipeleon/internal/analysis"
	"pipeleon/internal/costmodel"
	"pipeleon/internal/diag"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
)

// One positive (rule fires) and one negative (clean program) fixture per
// lint rule. Fixtures are built with the IR builder, so they are also a
// regression net over the builder API itself.

// exact is a minimal exact-match table spec over field.
func exact(name, field string, next string) p4ir.TableSpec {
	return p4ir.TableSpec{
		Name:          name,
		Keys:          []p4ir.Key{{Field: field, Kind: p4ir.MatchExact, Width: packet.FieldWidth(field)}},
		Actions:       []*p4ir.Action{p4ir.NewAction("set", p4ir.Prim("modify_field", "meta."+name, "1")), p4ir.NoopAction("pass")},
		DefaultAction: "pass",
		Next:          next,
	}
}

// codes returns the distinct codes present in l.
func codes(l diag.List) map[string]bool {
	out := map[string]bool{}
	for _, d := range l {
		out[d.Code] = true
	}
	return out
}

// wantDiag asserts l contains a diagnostic with the code, severity, and
// node.
func wantDiag(t *testing.T, l diag.List, code string, sev diag.Severity, node string) {
	t.Helper()
	for _, d := range l {
		if d.Code == code && d.Severity == sev && d.Node == node {
			return
		}
	}
	t.Errorf("no %s %s diagnostic on node %q in:\n%v", code, sev, node, l)
}

func TestLintCleanProgram(t *testing.T) {
	prog, err := p4ir.ChainTables("clean", []p4ir.TableSpec{
		exact("a", "ipv4.dstAddr", ""),
		exact("b", "tcp.dport", ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	if l := analysis.Lint(prog, analysis.WithParams(costmodel.BlueField2())); len(l) != 0 {
		t.Errorf("clean program produced diagnostics:\n%v", l)
	}
}

func TestLintUnreachable(t *testing.T) {
	prog := p4ir.NewBuilder("unreach").
		Table(exact("a", "ipv4.dstAddr", "")).
		Table(exact("orphan", "tcp.dport", "")).
		Root("a").
		MustBuild()
	l := analysis.Lint(prog)
	wantDiag(t, l, analysis.CodeUnreachable, diag.Warn, "orphan")
	if l.HasErrors() {
		t.Errorf("PL101 must be a warning, got errors: %v", l.Errors())
	}
}

func TestLintReadBeforeInit(t *testing.T) {
	// Table keyed on metadata nothing ever writes.
	prog := p4ir.NewBuilder("rbi").
		Table(p4ir.TableSpec{
			Name:          "m",
			Keys:          []p4ir.Key{{Field: "meta.classify", Kind: p4ir.MatchExact, Width: 16}},
			Actions:       []*p4ir.Action{p4ir.NoopAction("pass")},
			DefaultAction: "pass",
		}).
		Root("m").
		MustBuild()
	wantDiag(t, analysis.Lint(prog), analysis.CodeReadBeforeIni, diag.Warn, "m")

	// Negative: an upstream table writes the metadata first.
	writer := p4ir.TableSpec{
		Name:          "w",
		Keys:          []p4ir.Key{{Field: "ipv4.tos", Kind: p4ir.MatchExact, Width: 8}},
		Actions:       []*p4ir.Action{p4ir.NewAction("cls", p4ir.Prim("modify_field", "meta.classify", "7")), p4ir.NoopAction("pass")},
		DefaultAction: "cls",
		Next:          "m",
	}
	prog2 := p4ir.NewBuilder("rbi-ok").
		Table(writer).
		Table(p4ir.TableSpec{
			Name:          "m",
			Keys:          []p4ir.Key{{Field: "meta.classify", Kind: p4ir.MatchExact, Width: 16}},
			Actions:       []*p4ir.Action{p4ir.NoopAction("pass")},
			DefaultAction: "pass",
		}).
		Root("w").
		MustBuild()
	if l := analysis.Lint(prog2); codes(l)[analysis.CodeReadBeforeIni] {
		t.Errorf("PL102 fired despite upstream writer:\n%v", l)
	}
}

func TestLintReadBeforeInitIntraAction(t *testing.T) {
	// Within one action, a primitive may read what an earlier primitive of
	// the same action wrote — no diagnostic.
	prog := p4ir.NewBuilder("rbi-local").
		Table(p4ir.TableSpec{
			Name: "t",
			Keys: []p4ir.Key{{Field: "ipv4.tos", Kind: p4ir.MatchExact, Width: 8}},
			Actions: []*p4ir.Action{p4ir.NewAction("two",
				p4ir.Prim("modify_field", "meta.tmp", "5"),
				p4ir.Prim("add", "ipv4.ttl", "meta.tmp"),
			), p4ir.NoopAction("pass")},
			DefaultAction: "pass",
		}).
		Root("t").
		MustBuild()
	if l := analysis.Lint(prog); codes(l)[analysis.CodeReadBeforeIni] {
		t.Errorf("PL102 fired on intra-action def-use:\n%v", l)
	}
}

func TestLintDeadPrimitive(t *testing.T) {
	prog := p4ir.NewBuilder("dead").
		Table(p4ir.TableSpec{
			Name: "acl",
			Keys: []p4ir.Key{{Field: "tcp.dport", Kind: p4ir.MatchExact, Width: 16}},
			Actions: []*p4ir.Action{
				p4ir.NewAction("drop_then_set",
					p4ir.Prim("drop"),
					p4ir.Prim("modify_field", "meta.x", "1")),
				p4ir.NoopAction("pass"),
			},
			DefaultAction: "pass",
		}).
		Root("acl").
		MustBuild()
	wantDiag(t, analysis.Lint(prog), analysis.CodeDeadPrimitive, diag.Warn, "acl")

	// Negative: drop as the final primitive is fine.
	prog2 := p4ir.NewBuilder("dead-ok").
		Table(p4ir.TableSpec{
			Name: "acl",
			Keys: []p4ir.Key{{Field: "tcp.dport", Kind: p4ir.MatchExact, Width: 16}},
			Actions: []*p4ir.Action{
				p4ir.NewAction("set_then_drop",
					p4ir.Prim("modify_field", "meta.x", "1"),
					p4ir.Prim("drop")),
				p4ir.NoopAction("pass"),
			},
			DefaultAction: "pass",
		}).
		Root("acl").
		MustBuild()
	if l := analysis.Lint(prog2); codes(l)[analysis.CodeDeadPrimitive] {
		t.Errorf("PL103 fired on final drop:\n%v", l)
	}
}

func TestLintWidthMismatch(t *testing.T) {
	mk := func(entries []p4ir.Entry, kind p4ir.MatchKind) *p4ir.Program {
		return p4ir.NewBuilder("width").
			Table(p4ir.TableSpec{
				Name:          "t",
				Keys:          []p4ir.Key{{Field: "tcp.dport", Kind: kind, Width: 16}},
				Actions:       []*p4ir.Action{p4ir.NoopAction("pass")},
				DefaultAction: "pass",
				Entries:       entries,
			}).
			Root("t").
			MustBuild()
	}

	// An oversized value and a prefix longer than the key are no entries
	// of a valid program: the structural pass refuses them (P4S06), and
	// PL104 never sees them.
	for kind, mv := range map[p4ir.MatchKind]p4ir.MatchValue{
		p4ir.MatchExact: {Value: 1 << 20},
		p4ir.MatchLPM:   {Value: 0x10, PrefixLen: 24},
	} {
		p := mk(nil, kind)
		p.Tables["t"].Entries = []p4ir.Entry{{Match: []p4ir.MatchValue{mv}, Action: "pass"}}
		l := analysis.Lint(p)
		wantDiag(t, l, p4ir.CodeBadEntry, diag.Error, "t")
		if codes(l)[analysis.CodeWidthMismatch] {
			t.Errorf("PL104 fired on a structurally refused %s entry:\n%v", kind, l)
		}
	}

	// Value bits below the prefix: warn.
	l := analysis.Lint(mk([]p4ir.Entry{
		{Match: []p4ir.MatchValue{{Value: 0xff01, PrefixLen: 8}}, Action: "pass"},
	}, p4ir.MatchLPM))
	wantDiag(t, l, analysis.CodeWidthMismatch, diag.Warn, "t")

	// Value bits outside the ternary mask: warn.
	l = analysis.Lint(mk([]p4ir.Entry{
		{Match: []p4ir.MatchValue{{Value: 0x00ff, Mask: 0xff00}}, Action: "pass"},
	}, p4ir.MatchTernary))
	wantDiag(t, l, analysis.CodeWidthMismatch, diag.Warn, "t")

	// Well-formed entries of every kind: clean.
	for kind, e := range map[p4ir.MatchKind]p4ir.Entry{
		p4ir.MatchExact:   {Match: []p4ir.MatchValue{{Value: 80}}, Action: "pass"},
		p4ir.MatchLPM:     {Match: []p4ir.MatchValue{{Value: 0x1200, PrefixLen: 8}}, Action: "pass"},
		p4ir.MatchTernary: {Match: []p4ir.MatchValue{{Value: 0x1200, Mask: 0xff00}}, Action: "pass"},
	} {
		if l := analysis.Lint(mk([]p4ir.Entry{e}, kind)); codes(l)[analysis.CodeWidthMismatch] {
			t.Errorf("PL104 fired on well-formed %s entry:\n%v", kind, l)
		}
	}
}

func TestLintMemoryTiers(t *testing.T) {
	mk := func(entries int) *p4ir.Program {
		spec := exact("pinned", "ipv4.dstAddr", "")
		for i := 0; i < entries; i++ {
			spec.Entries = append(spec.Entries, p4ir.Entry{
				Match: []p4ir.MatchValue{{Value: uint64(i)}}, Action: "set",
			})
		}
		prog := p4ir.NewBuilder("tiers").Table(spec).Root("pinned").MustBuild()
		prog.Tables["pinned"].SetMemTier(p4ir.TierSRAM)
		return prog
	}

	// Pinning on a target with no SRAM tier model: warn.
	l := analysis.Lint(mk(4), analysis.WithParams(costmodel.BlueField2()))
	wantDiag(t, l, analysis.CodeTierOvercommt, diag.Warn, "pinned")

	// Overcommitting a modeled SRAM tier: one program-level error.
	tiered := costmodel.BlueField2()
	tiered.SRAMFactor = 0.4
	tiered.SRAMBytes = 64
	l = analysis.Lint(mk(100), analysis.WithParams(tiered))
	wantDiag(t, l, analysis.CodeTierOvercommt, diag.Error, "")

	// Fitting placement: clean.
	tiered.SRAMBytes = 1 << 20
	if l := analysis.Lint(mk(4), analysis.WithParams(tiered)); codes(l)[analysis.CodeTierOvercommt] {
		t.Errorf("PL105 fired on a fitting placement:\n%v", l)
	}

	// No params supplied: rule disabled entirely.
	if l := analysis.Lint(mk(100)); codes(l)[analysis.CodeTierOvercommt] {
		t.Errorf("PL105 fired without cost-model params:\n%v", l)
	}
}

// cacheFixture builds root cache table c over covered tables a→b, with
// the given cache keys.
func cacheFixture(t *testing.T, cacheKeys []string, coverSpecs []p4ir.TableSpec, covers []string) *p4ir.Program {
	t.Helper()
	var keys []p4ir.Key
	for _, f := range cacheKeys {
		keys = append(keys, p4ir.Key{Field: f, Kind: p4ir.MatchExact, Width: packet.FieldWidth(f)})
	}
	b := p4ir.NewBuilder("cachefix").
		Table(p4ir.TableSpec{
			Name:          "c",
			Keys:          keys,
			Actions:       []*p4ir.Action{p4ir.NoopAction("cache_miss")},
			DefaultAction: "cache_miss",
			Next:          coverSpecs[0].Name,
		})
	for _, cs := range coverSpecs {
		b.Table(cs)
	}
	prog := b.Root("c").MustBuild()
	prog.Tables["c"].SetCacheMeta(p4ir.CacheSpec{
		Table:    "c",
		Kind:     p4ir.KindCache,
		Covers:   covers,
		MissNext: coverSpecs[0].Name,
	})
	return prog
}

func TestLintUnsoundCache(t *testing.T) {
	a := exact("a", "ipv4.dstAddr", "b")
	bt := exact("b", "tcp.dport", "")

	// Sound cache keyed on both covered fields: clean.
	prog := cacheFixture(t, []string{"ipv4.dstAddr", "tcp.dport"}, []p4ir.TableSpec{a, bt}, []string{"a", "b"})
	if l := analysis.Lint(prog); codes(l)[analysis.CodeUnsoundCache] {
		t.Errorf("PL106 fired on a sound cache:\n%v", l)
	}

	// Missing a covered match field in the cache key: error.
	prog = cacheFixture(t, []string{"ipv4.dstAddr"}, []p4ir.TableSpec{a, bt}, []string{"a", "b"})
	wantDiag(t, analysis.Lint(prog), analysis.CodeUnsoundCache, diag.Error, "c")

	// Unknown cover: error.
	prog = cacheFixture(t, []string{"ipv4.dstAddr", "tcp.dport"}, []p4ir.TableSpec{a, bt}, []string{"a", "ghost"})
	wantDiag(t, analysis.Lint(prog), analysis.CodeUnsoundCache, diag.Error, "c")

	// Empty covers: error.
	prog = cacheFixture(t, []string{"ipv4.dstAddr", "tcp.dport"}, []p4ir.TableSpec{a, bt}, nil)
	wantDiag(t, analysis.Lint(prog), analysis.CodeUnsoundCache, diag.Error, "c")

	// A covered table writing a later cover's match key: error.
	aw := a
	aw.Actions = []*p4ir.Action{
		p4ir.NewAction("rewrite", p4ir.Prim("modify_field", "tcp.dport", "443")),
		p4ir.NoopAction("pass"),
	}
	prog = cacheFixture(t, []string{"ipv4.dstAddr", "tcp.dport"}, []p4ir.TableSpec{aw, bt}, []string{"a", "b"})
	wantDiag(t, analysis.Lint(prog), analysis.CodeUnsoundCache, diag.Error, "c")
}

// Structural errors suppress the semantic rules: a dangling reference must
// not also drown the user in downstream lint noise.
func TestLintStructuralGate(t *testing.T) {
	prog := p4ir.NewProgram("broken")
	prog.Root = "t"
	prog.Tables["t"] = &p4ir.Table{
		Name:          "t",
		Actions:       []*p4ir.Action{p4ir.NoopAction("pass")},
		DefaultAction: "pass",
		BaseNext:      "missing",
	}
	l := analysis.Lint(prog)
	if !l.HasErrors() {
		t.Fatal("structurally broken program linted clean")
	}
	for _, d := range l {
		if d.Code[:3] == "PL1" {
			t.Errorf("semantic rule %s ran on a structurally invalid program", d.Code)
		}
	}
}
