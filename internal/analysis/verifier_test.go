package analysis

import (
	"fmt"
	"strings"
	"testing"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/diag"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/synth"
)

// codesWith returns the diagnostics of l whose code starts with prefix,
// rendered — two lists agree on a rule family when these are equal.
func codesWith(l diag.List, prefix string) string {
	var out []string
	for _, d := range l {
		if strings.HasPrefix(d.Code, prefix) {
			out = append(out, d.String())
		}
	}
	return strings.Join(out, "\n")
}

// depProg is writer -> reader (a read-after-write edge on meta.a), then an
// independent third table; swapped reverses the dependent pair.
func depProg(name string, swapped bool) *p4ir.Program {
	w := p4ir.TableSpec{
		Name:          "w",
		Keys:          []p4ir.Key{{Field: "tcp.dport", Kind: p4ir.MatchExact, Width: 16}},
		Actions:       []*p4ir.Action{p4ir.NewAction("set", p4ir.Prim("modify_field", "meta.a", "3")), p4ir.NoopAction("pass")},
		DefaultAction: "pass",
		Entries:       []p4ir.Entry{{Match: []p4ir.MatchValue{{Value: 80}}, Action: "set"}},
	}
	r := p4ir.TableSpec{
		Name:          "r",
		Keys:          []p4ir.Key{{Field: "ipv4.proto", Kind: p4ir.MatchExact, Width: 8}},
		Actions:       []*p4ir.Action{p4ir.NewAction("copy", p4ir.Prim("modify_field", "meta.b", "meta.a")), p4ir.NoopAction("pass")},
		DefaultAction: "copy",
	}
	b := p4ir.NewBuilder(name)
	if swapped {
		r.Next = "w"
		return b.Table(r).Table(w).Root("r").MustBuild()
	}
	w.Next = "r"
	return b.Table(w).Table(r).Root("w").MustBuild()
}

// A later tier runs only when the earlier ones found no error, and the
// depth of a verifier changes nothing about the tiers both depths run. A
// verifier trusts a candidate's structure, which its maker checked;
// VerifyRewrite, the one-shot proof, checks it and stops there.
func TestVerifierTiersShortCircuit(t *testing.T) {
	orig := depProg("orig", false)
	shallow, deep := NewVerifier(orig, false), NewVerifier(orig, true)

	dangling := depProg("dangling", false)
	dangling.Tables["w"].BaseNext = "missing"
	if l := VerifyRewrite(orig, dangling); !l.HasErrors() || codesWith(l, "P4S") != strings.Join(l.Strings(), "\n") {
		t.Errorf("VerifyRewrite of a dangling candidate: %v, want its structural errors only", l)
	}
	lost := depProg("lost", false)
	delete(lost.Tables, "r")
	lost.Tables["w"].BaseNext = ""
	changed := depProg("changed", false)
	changed.Tables["w"].Actions[0] = p4ir.NewAction("set", p4ir.Prim("modify_field", "meta.a", "4"))

	cases := []struct {
		cand     *p4ir.Program
		wantCode string // the code family the deep verdict must consist of; "" accepts
	}{
		{depProg("same", false), ""},
		{lost, "RW"},
		{depProg("reversed", true), "RW"},
		{changed, "SE"},
	}
	for _, c := range cases {
		d, s := deep.Prove(c.cand, c.cand.Digest()), shallow.Prove(c.cand, c.cand.Digest())
		if c.wantCode == "" {
			if d.HasErrors() || s.HasErrors() {
				t.Errorf("%s: sound rewrite refused: deep %v, shallow %v", c.cand.Name, d, s)
			}
			continue
		}
		if !d.HasErrors() {
			t.Errorf("%s: deep verifier accepted it", c.cand.Name)
		}
		// A refused program reports the first failing tier's findings only:
		// the semantic tier would add SE003 to one that lost or reversed a
		// write.
		for _, diag := range d {
			if !strings.HasPrefix(diag.Code, c.wantCode) {
				t.Errorf("%s: verdict reaches past the %s tier: %v", c.cand.Name, c.wantCode, diag)
			}
		}
		if codesWith(d, "RW") != codesWith(s, "RW") {
			t.Errorf("%s: the two depths disagree below the semantic tier:\ndeep    %v\nshallow %v", c.cand.Name, d, s)
		}
		if c.wantCode == "SE" && s.HasErrors() {
			t.Errorf("%s: shallow verifier ran the semantic tier: %v", c.cand.Name, s)
		}
	}
}

// The verdict memo is content-keyed and bounded: a warm answer is the
// same sorted list as the cold one, 10⁴ distinct candidates leave it at
// its cap, and a candidate evicted meanwhile is proven again to the same
// verdict.
func TestVerifierMemoBoundedAndVerdictStable(t *testing.T) {
	build := func(name, missValue string) *p4ir.Program {
		return p4ir.NewBuilder(name).
			Table(p4ir.TableSpec{
				Name: "t",
				Keys: []p4ir.Key{{Field: "tcp.dport", Kind: p4ir.MatchExact, Width: 16}},
				Actions: []*p4ir.Action{
					p4ir.NewAction("hit", p4ir.Prim("modify_field", "meta.mark", "1")),
					p4ir.NewAction("miss", p4ir.Prim("modify_field", "meta.mark", missValue)),
				},
				DefaultAction: "miss",
				Entries:       []p4ir.Entry{{Match: []p4ir.MatchValue{{Value: 80}}, Action: "hit"}},
			}).
			MustBuild()
	}
	orig := build("orig", "7")
	v := NewVerifier(orig, true)
	good, bad := build("good", "7"), build("bad", "8")
	prove := func(p *p4ir.Program) diag.List { return v.Prove(p, p.Digest()) }

	coldGood, coldBad := prove(good), prove(bad)
	if coldGood.HasErrors() || deepCodes(coldBad)[CodeSemEgress] == 0 {
		t.Fatalf("cold verdicts: good %v, bad %v", coldGood, coldBad)
	}
	warmBad := prove(bad)
	if strings.Join(warmBad.Strings(), "\n") != strings.Join(coldBad.Strings(), "\n") {
		t.Errorf("memoized diagnostics differ:\ncold %v\nwarm %v", coldBad, warmBad)
	}
	if hits, misses := v.MemoStats(); hits != 1 || misses != 2 {
		t.Errorf("memo stats = %d hits / %d misses, want 1 / 2", hits, misses)
	}

	for i := 0; i < 10000; i++ {
		prove(build(fmt.Sprintf("p%d", i), "7"))
	}
	if n := v.verdicts.Len(); n > proofMemoCap {
		t.Errorf("memo holds %d verdicts, cap %d", n, proofMemoCap)
	}
	_, before := v.MemoStats()
	if again := prove(bad); strings.Join(again.Strings(), "\n") != strings.Join(coldBad.Strings(), "\n") {
		t.Errorf("evicted candidate re-verified to a different verdict: %v", again)
	}
	if prove(good).HasErrors() {
		t.Error("evicted equivalent candidate now rejected")
	}
	if _, after := v.MemoStats(); after != before+2 {
		t.Errorf("evicted candidates were not proven again: misses %d -> %d", before, after)
	}
}

// A deep proof reads the original's entries. After an entry operation on
// the original, announced to nobody, a verdict from before is not reused
// and the next proof compares against the new entries; the counters keep
// running across the rebuild.
func TestVerifierFollowsEntryChanges(t *testing.T) {
	build := func(name string, args ...string) *p4ir.Program {
		var entries []p4ir.Entry
		for i, a := range args {
			entries = append(entries, p4ir.Entry{Match: []p4ir.MatchValue{{Value: uint64(80 + i)}}, Action: "set", Args: []string{a}})
		}
		return p4ir.NewBuilder(name).
			Table(p4ir.TableSpec{
				Name:          "mark",
				Keys:          []p4ir.Key{{Field: "tcp.dport", Kind: p4ir.MatchExact, Width: 16}},
				Actions:       []*p4ir.Action{p4ir.NewAction("set", p4ir.Prim("modify_field", "meta.mark", "$0")), p4ir.NoopAction("pass")},
				DefaultAction: "pass",
				Entries:       entries,
			}).
			MustBuild()
	}
	orig := build("orig", "1")
	v := NewVerifier(orig, true)
	narrow, wide := build("narrow", "1"), build("wide", "1", "9")
	prove := func(p *p4ir.Program) diag.List { return v.Prove(p, p.Digest()) }
	if prove(narrow).HasErrors() || !prove(wide).HasErrors() {
		t.Fatal("before the insert: the one-entry program must pass and the two-entry one fail")
	}

	if _, err := orig.InsertEntry("mark", wide.Tables["mark"].Entries[1]); err != nil {
		t.Fatal(err)
	}
	if l := prove(narrow); deepCodes(l)[CodeSemEgress] == 0 {
		t.Errorf("program without the inserted entry passed on a verdict from before: %v", l)
	}
	for range 2 { // a miss, then a hit under the new version
		if l := prove(wide); l.HasErrors() {
			t.Errorf("program with the inserted entry refused: %v", l)
		}
	}
	if hits, misses := v.MemoStats(); hits != 1 || misses != 4 {
		t.Errorf("memo stats = %d hits / %d misses over the rebuild, want 1 / 4", hits, misses)
	}
}

// The gate's tiers, in order, each ending the check on an error; what a
// memo hit returns; what an entry operation on the original outdates.
func TestGateTiers(t *testing.T) {
	orig := depProg("orig", false)
	v := NewVerifier(orig, true)
	g := NewGate(costmodel.BlueField2(), v)
	check := func(p *p4ir.Program) Verdict { return g.Check(p, p.Digest()) }
	proofs := func() uint64 { h, m := v.MemoStats(); return h + m }

	// Tier 1: a lint error — a cache over a table the program lacks
	// (PL106) — refuses as "static analysis", before any proof.
	ghost := depProg("ghostcache", false)
	ghost.Tables["w"].SetCacheMeta(p4ir.CacheSpec{Table: "w", Kind: p4ir.KindCache, Covers: []string{"ghost"}})
	if got := check(ghost); !strings.HasPrefix(got.Refusal, "static analysis: ") ||
		deepCodes(got.Diags)[CodeUnsoundCache] == 0 || proofs() != 0 {
		t.Errorf("lint tier: verdict %+v after %d proofs", got, proofs())
	}
	// Tier 2: a reversed dependency and a changed write refuse as "semantic
	// verification".
	for _, bad := range []*p4ir.Program{depProg("reversed", true), func() *p4ir.Program {
		p := depProg("changed", false)
		p.Tables["w"].Actions[0] = p4ir.NewAction("set", p4ir.Prim("modify_field", "meta.a", "4"))
		return p
	}()} {
		if got := check(bad); !strings.HasPrefix(got.Refusal, "semantic verification: ") || !got.Diags.HasErrors() {
			t.Errorf("%s: verdict %+v", bad.Name, got)
		}
	}
	// The original itself needs no proof; a copy of it is proven.
	before := proofs()
	if got := check(orig); got.Refusal != "" || proofs() != before {
		t.Errorf("original: verdict %+v, %d proofs", got, proofs()-before)
	}
	if got := check(depProg("copy", false)); got.Refusal != "" || proofs() != before+1 {
		t.Errorf("copy of the original: verdict %+v, %d proofs", got, proofs()-before)
	}
	// Tier 3: behind a deep verifier an accepted program carries the
	// value-range warnings; behind a shallow one it does not.
	shadowed := depProg("shadowed", false)
	shadowed.Tables["w"].Entries = append(shadowed.Tables["w"].Entries, shadowed.Tables["w"].Entries[0].Clone())
	fresh := check(shadowed)
	if fresh.Refusal != "" || deepCodes(fresh.Diags)[CodeAlwaysMissEntry] == 0 {
		t.Errorf("deep gate: verdict %+v, want accepted with a %s warning", fresh, CodeAlwaysMissEntry)
	}
	sg := NewGate(costmodel.BlueField2(), NewVerifier(orig, false))
	if got := sg.Check(shadowed, shadowed.Digest()); got.Refusal != "" || len(got.Diags) != 0 {
		t.Errorf("shallow gate: verdict %+v, want accepted with no findings", got)
	}
	// No verifier: lint only.
	if got := NewGate(costmodel.BlueField2(), nil).Check(depProg("reversed", true), p4ir.Digest{1}); got.Refusal != "" {
		t.Errorf("lint-only gate refused a program that lints clean: %+v", got)
	}

	// A hit is the verdict the fresh run produced.
	hits, _ := g.MemoStats()
	again := check(shadowed)
	if h, _ := g.MemoStats(); h != hits+1 || again.Refusal != fresh.Refusal ||
		strings.Join(again.Diags.Strings(), "\n") != strings.Join(fresh.Diags.Strings(), "\n") {
		t.Errorf("memo hit differs from the fresh verdict: %+v vs %+v", again, fresh)
	}
	// An entry operation on the original moves the key of every verdict:
	// the deep gate, the shallow one and the verifier behind the deep gate
	// each run once more, then remember what they found under the new
	// version.
	_, gMisses := g.MemoStats()
	_, sgMisses := sg.MemoStats()
	_, vMisses := v.MemoStats()
	e := orig.Tables["w"].Entries[0]
	if _, err := orig.ModifyEntry("w", e.Match, e.Action, e.Args); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		check(shadowed)
		sg.Check(shadowed, shadowed.Digest())
	}
	_, gAfter := g.MemoStats()
	_, sgAfter := sg.MemoStats()
	_, vAfter := v.MemoStats()
	if gAfter != gMisses+1 || sgAfter != sgMisses+1 || vAfter != vMisses+1 {
		t.Errorf("misses across the entry operation: deep gate +%d, shallow gate +%d, verifier +%d; want +1 each",
			gAfter-gMisses, sgAfter-sgMisses, vAfter-vMisses)
	}
}

// Prove states the proof's strength when the class bounds coarsened it: one
// SE005 info naming the forced and total conditionals, on a program with
// 13 reachable conditionals (semMaxConds is 12, and semClassBudget forces
// fewer still on its 68 nodes). The verdict itself is not refused.
func TestProveReportsCoarsenedPartition(t *testing.T) {
	orig := synth.Program(synth.ProgramSpec{Pipelets: 40, AvgLen: 1.5, Category: synth.Mixed, Seed: 3, EntriesPerTable: 4, DiamondOnly: true})
	v := NewVerifier(orig, true)
	forced, total := v.Strength()
	if total <= semMaxConds || forced >= total {
		t.Fatalf("strength %d of %d: the program must have more than %d conditionals and a coarsened partition", forced, total, semMaxConds)
	}
	cand := orig.Clone()
	l := v.Prove(cand, cand.Digest())
	if l.HasErrors() {
		t.Fatalf("the original's clone is refused: %v", l)
	}
	se := byCode(l, CodeSemCoarse)
	if len(se) != 1 || se[0].Severity != diag.Info {
		t.Fatalf("want one SE005 info, got %v", l)
	}
	if want := fmt.Sprintf("fork on %d of %d conditionals", forced, total); !strings.Contains(se[0].Message, want) {
		t.Errorf("SE005 %q does not say %q", se[0].Message, want)
	}
	// A shallow verifier has no semantic tier to coarsen.
	if l := NewVerifier(orig, false).Prove(cand, cand.Digest()); len(byCode(l, CodeSemCoarse)) != 0 {
		t.Errorf("shallow Prove reports %v", l)
	}
}

// The synth-proof program forks on all five of its conditionals: its
// proofs carry no SE005.
func TestSynthProofProofIsFull(t *testing.T) {
	orig := synth.Program(synth.ProgramSpec{Pipelets: 20, AvgLen: 3, Category: synth.Mixed, Seed: 7})
	v := NewVerifier(orig, true)
	if forced, total := v.Strength(); forced != 5 || total != 5 {
		t.Fatalf("strength %d of %d, want 5 of 5", forced, total)
	}
	cand := orig.Clone()
	if l := v.Prove(cand, cand.Digest()); len(l) != 0 {
		t.Errorf("Prove of the original's clone: %v", l)
	}
}

// byCode returns the diagnostics of l that carry code.
func byCode(l diag.List, code string) diag.List {
	var out diag.List
	for _, d := range l {
		if d.Code == code {
			out = append(out, d)
		}
	}
	return out
}
