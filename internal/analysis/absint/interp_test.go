package absint

import (
	"testing"

	"pipeleon/internal/p4ir"
)

func exactKey(field string, w int) p4ir.Key {
	return p4ir.Key{Field: field, Kind: p4ir.MatchExact, Width: w}
}

// A branch on ipv4.ttl refines the range flowing into each arm: entries
// outside the refined range are provably dead, decided conditionals are
// flagged, and an unreachable arm's table never becomes reachable.
func TestCondRefinementPrunesEntriesAndBranches(t *testing.T) {
	prog := p4ir.NewBuilder("refine").
		Cond("c_ttl", "ipv4.ttl > 10", "t_big", "t_small", "ipv4.ttl").
		Table(p4ir.TableSpec{
			Name: "t_big",
			Keys: []p4ir.Key{exactKey("ipv4.ttl", 8)},
			Actions: []*p4ir.Action{
				p4ir.NewAction("fwd", p4ir.Prim("modify_field", "meta.egress_port", "1")),
				p4ir.NoopAction("miss"),
			},
			Entries: []p4ir.Entry{
				{Match: []p4ir.MatchValue{{Value: 5}}, Action: "fwd"},  // dead: ttl > 10
				{Match: []p4ir.MatchValue{{Value: 99}}, Action: "fwd"}, // live
			},
			Next: "c_dead",
		}).
		Cond("c_dead", "ipv4.ttl <= 10", "t_never", "", "ipv4.ttl").
		Table(p4ir.TableSpec{
			Name:    "t_never",
			Actions: []*p4ir.Action{p4ir.NoopAction("noop")},
		}).
		Table(p4ir.TableSpec{
			Name:    "t_small",
			Actions: []*p4ir.Action{p4ir.NoopAction("noop")},
		}).
		Root("c_ttl").
		MustBuild()

	res, err := Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	big := res.Nodes["t_big"]
	if !big.Reachable {
		t.Fatal("t_big should be reachable")
	}
	if big.EntryMay[0] {
		t.Error("entry ttl==5 should be dead under ttl > 10")
	}
	if !big.EntryMay[1] {
		t.Error("entry ttl==99 should stay live")
	}
	if got := big.In.Get("ipv4.ttl"); got.Lo != 11 || got.Hi != 255 {
		t.Errorf("refined ttl range = %+v, want [11,255]", got)
	}
	dead := res.Nodes["c_dead"]
	if !dead.CondKnown || !dead.CondDecided || dead.CondTaken {
		t.Errorf("c_dead should be decided false: %+v", dead)
	}
	if res.Nodes["t_never"].Reachable {
		t.Error("t_never is only reachable through a decided-false arm")
	}
	if !res.Nodes["t_small"].Reachable {
		t.Error("t_small must be reachable")
	}
}

// MustMatch excludes the miss path, and a guaranteed drop is classified
// MustDrop.
func TestMustMatchAndMustDrop(t *testing.T) {
	prog := p4ir.NewBuilder("drop").
		Cond("c", "ipv4.proto == 6", "t", "", "ipv4.proto").
		Table(p4ir.TableSpec{
			Name: "t",
			Keys: []p4ir.Key{exactKey("ipv4.proto", 8)},
			Actions: []*p4ir.Action{
				p4ir.DropAction(),
				p4ir.NoopAction("miss"),
			},
			Entries: []p4ir.Entry{
				{Match: []p4ir.MatchValue{{Value: 6}}, Action: "drop_packet"},
			},
		}).
		Root("c").
		MustBuild()

	res, err := Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	nr := res.Nodes["t"]
	if !nr.EntryMust[0] {
		t.Error("proto==6 entry must match under proto == 6")
	}
	if nr.MissPossible {
		t.Error("miss impossible when an entry must match")
	}
	if !res.Outcome.MayDrop {
		t.Error("drop path exists")
	}
	if res.Outcome.MustDrop {
		t.Error("false arm egresses: not a must-drop program")
	}

	// Forcing the true arm makes the drop certain.
	outs, err := NewAnalyzer(prog).ExecClasses([]string{"c"})
	if err != nil {
		t.Fatal(err)
	}
	if out := outs[1]; !out.Feasible || !out.MustDrop {
		t.Errorf("forced-true class should must-drop: %+v", out)
	}
	// A forced conditional the program lacks changes no class.
	outs, err = NewAnalyzer(prog).ExecClasses([]string{"c", "missing"})
	if err != nil {
		t.Fatal(err)
	}
	if out := outs[1]; !out.Feasible || !out.MustDrop {
		t.Errorf("unknown forced cond must not change the class: %+v", out)
	}
}

// The egress join tracks constant writes precisely, and writes on dropped
// paths stay unobservable.
func TestEgressJoinAndActionSemantics(t *testing.T) {
	prog := p4ir.NewBuilder("writes").
		Table(p4ir.TableSpec{
			Name: "t",
			Keys: []p4ir.Key{exactKey("tcp.dport", 16)},
			Actions: []*p4ir.Action{
				p4ir.NewAction("set2",
					p4ir.Prim("modify_field", "meta.mark", "2"),
					p4ir.Prim("add", "meta.mark", "meta.mark", "$0")),
				p4ir.NewAction("poison_then_drop",
					p4ir.Prim("modify_field", "meta.mark", "999"),
					p4ir.Prim("drop")),
				p4ir.NewAction("miss", p4ir.Prim("modify_field", "meta.mark", "7")),
			},
			DefaultAction: "miss",
			Entries: []p4ir.Entry{
				{Match: []p4ir.MatchValue{{Value: 80}}, Action: "set2", Args: []string{"3"}},
				{Match: []p4ir.MatchValue{{Value: 443}}, Action: "poison_then_drop"},
			},
		}).
		MustBuild()

	res, err := Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	mark := res.Outcome.Egress.Get("meta.mark")
	// Observable marks: 2+3=5 (hit) and 7 (miss); 999 only on a dropped path.
	if mark.Lo != 5 || mark.Hi != 7 {
		t.Errorf("meta.mark = %+v, want hull [5,7]", mark)
	}
	if !res.Outcome.MayDrop || res.Outcome.MustDrop {
		t.Errorf("outcome = %+v", res.Outcome)
	}
	// Default action runs with nil args: $0 reads zero there.
	// (covered by the hull: miss writes exactly 7, not 7+$0)
}

// AnalyzeTable's shadows mirror the emulator's dedup and priority probe.
func TestTableShadows(t *testing.T) {
	tern := func(v, m uint64, prio int) p4ir.Entry {
		return p4ir.Entry{Priority: prio, Match: []p4ir.MatchValue{{Value: v, Mask: m}}, Action: "a"}
	}
	tbl := &p4ir.Table{
		Name: "t",
		Keys: []p4ir.Key{{Field: "ipv4.tos", Kind: p4ir.MatchTernary, Width: 8}},
		Actions: []*p4ir.Action{
			p4ir.NewAction("a", p4ir.Prim("no_op")),
		},
		Entries: []p4ir.Entry{
			tern(0x10, 0xff, 1),  // 0: duplicate of 1 at lower prio -> dedup loser
			tern(0x10, 0xff, 3),  // 1: winner of the 0xff/0x10 slot
			tern(0x10, 0xf0, 5),  // 2: superset of entry 1 at higher prio -> dominates 1
			tern(0x20, 0xff, 2),  // 3: live
			tern(0x00, 0x00, 10), // 4: full wildcard at top priority -> dominates everything
		},
	}
	shadows := AnalyzeTable(tbl).Shadows
	got := map[[2]int]bool{}
	dup := map[[2]int]bool{}
	for _, s := range shadows {
		got[[2]int{s.Entry, s.By}] = true
		dup[[2]int{s.Entry, s.By}] = s.Duplicate
	}
	if !got[[2]int{0, 1}] || !dup[[2]int{0, 1}] {
		t.Errorf("entry 0 should lose the dedup to entry 1: %v", shadows)
	}
	if !got[[2]int{1, 2}] && !got[[2]int{1, 4}] {
		t.Errorf("entry 1 should be dominated: %v", shadows)
	}
	if !got[[2]int{3, 4}] {
		t.Errorf("entry 3 should be dominated by the wildcard: %v", shadows)
	}
	for pair := range got {
		if pair[0] == 4 {
			t.Errorf("top-priority wildcard reported dead: %v", shadows)
		}
		if pair[0] == 2 && dup[pair] {
			t.Errorf("entry 2 is not a duplicate: %v", shadows)
		}
	}

	// Equal-priority overlap is order-dependent and must not be reported.
	tbl.Entries = []p4ir.Entry{
		tern(0x10, 0xff, 2),
		tern(0x00, 0xf0, 2),
	}
	if s := AnalyzeTable(tbl).Shadows; len(s) != 0 {
		t.Errorf("priority ties reported: %v", s)
	}

	// LPM nesting is not domination: the longer prefix wins its subset but
	// the shorter one still matches the rest of its space.
	lpm := &p4ir.Table{
		Name: "l",
		Keys: []p4ir.Key{{Field: "ipv4.dstAddr", Kind: p4ir.MatchLPM, Width: 32}},
		Actions: []*p4ir.Action{
			p4ir.NewAction("a", p4ir.Prim("no_op")),
		},
		Entries: []p4ir.Entry{
			{Match: []p4ir.MatchValue{{Value: 0x0a000000, PrefixLen: 8}}, Action: "a"},
			{Match: []p4ir.MatchValue{{Value: 0x0a0a0000, PrefixLen: 16}}, Action: "a"},
		},
	}
	if s := AnalyzeTable(lpm).Shadows; len(s) != 0 {
		t.Errorf("nested LPM prefixes are both live: %v", s)
	}
	// ... but two entries with the same prefix length and masked key dedup.
	lpm.Entries = append(lpm.Entries, p4ir.Entry{
		Match: []p4ir.MatchValue{{Value: 0x0a000001, PrefixLen: 8}}, Action: "a",
	})
	s := AnalyzeTable(lpm).Shadows
	if len(s) != 1 || s[0].Entry != 2 || s[0].By != 0 || !s[0].Duplicate {
		t.Errorf("same-prefix duplicate not caught: %v", s)
	}
}

// Mask-group coverage facts: full enumeration proves the table cannot
// miss, and conditional enumeration (a group that covers one key's whole
// space per fixed context on the other keys) starves lower-priority
// entries — the merged-table (entry, member-miss) combo shape.
func TestAnalyzeTableCoverage(t *testing.T) {
	tern2 := func(v1, m1, v2, m2 uint64, prio int) p4ir.Entry {
		return p4ir.Entry{Priority: prio, Match: []p4ir.MatchValue{
			{Value: v1, Mask: m1}, {Value: v2, Mask: m2},
		}, Action: "a"}
	}
	// Key 2 is 2 bits wide; the prio-2 group enumerates its space {0..3}
	// under two key-1 contexts (0x10 and 0x20). The prio-1 entries pair
	// those contexts with a key-2 wildcard: semantically dead, exactly
	// like a merged table's (entry, miss) combos when the second member
	// cannot miss. The 0x30 context is incomplete (3 of 4 values), so
	// its wildcard entry stays live.
	tbl := &p4ir.Table{
		Name: "m",
		Keys: []p4ir.Key{
			{Field: "ipv4.tos", Kind: p4ir.MatchTernary, Width: 8},
			{Field: "meta.cls", Kind: p4ir.MatchTernary, Width: 2},
		},
		Actions: []*p4ir.Action{p4ir.NewAction("a", p4ir.Prim("no_op"))},
	}
	for _, ctx := range []uint64{0x10, 0x20} {
		for v2 := uint64(0); v2 < 4; v2++ {
			tbl.Entries = append(tbl.Entries, tern2(ctx, 0xff, v2, 0x3, 2))
		}
	}
	for v2 := uint64(0); v2 < 3; v2++ {
		tbl.Entries = append(tbl.Entries, tern2(0x30, 0xff, v2, 0x3, 2))
	}
	wild10 := len(tbl.Entries)
	tbl.Entries = append(tbl.Entries,
		tern2(0x10, 0xff, 0, 0, 1), // covered: ctx 0x10 complete
		tern2(0x20, 0xff, 0, 0, 1), // covered: ctx 0x20 complete
		tern2(0x30, 0xff, 0, 0, 1), // live: ctx 0x30 incomplete
	)
	facts := AnalyzeTable(tbl)
	if facts.MustHit {
		t.Errorf("table can miss (e.g. tos=0x40) but MustHit set")
	}
	dead := map[int]bool{}
	for _, s := range facts.Shadows {
		if !s.Covered {
			t.Errorf("unexpected non-coverage shadow: %v", s)
		}
		dead[s.Entry] = true
	}
	if !dead[wild10] || !dead[wild10+1] {
		t.Errorf("conditionally covered wildcards not caught: %v", facts.Shadows)
	}
	if dead[wild10+2] {
		t.Errorf("wildcard under the incomplete 0x30 context reported dead: %v", facts.Shadows)
	}

	// A single group enumerating its whole tuple space proves MustHit and
	// starves lower-priority entries in later-probed groups.
	full := &p4ir.Table{
		Name:    "f",
		Keys:    []p4ir.Key{{Field: "meta.cls", Kind: p4ir.MatchTernary, Width: 2}},
		Actions: []*p4ir.Action{p4ir.NewAction("a", p4ir.Prim("no_op"))},
	}
	for v := uint64(0); v < 4; v++ {
		full.Entries = append(full.Entries, p4ir.Entry{
			Priority: 3, Match: []p4ir.MatchValue{{Value: v, Mask: 0x3}}, Action: "a",
		})
	}
	full.Entries = append(full.Entries, p4ir.Entry{
		Priority: 1, Match: []p4ir.MatchValue{{Value: 0, Mask: 0}}, Action: "a",
	})
	f := AnalyzeTable(full)
	if !f.MustHit {
		t.Error("fully-enumerated group did not prove MustHit")
	}
	starved := false
	for _, s := range f.Shadows {
		if s.Entry == 4 && s.Covered {
			starved = true
		}
	}
	if !starved {
		t.Errorf("lower-priority wildcard not starved by full coverage: %v", f.Shadows)
	}
}

// An empty program egresses every packet unchanged.
func TestEmptyProgram(t *testing.T) {
	prog := p4ir.NewProgram("empty")
	res, err := Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outcome.Feasible || res.Outcome.MayDrop || res.Outcome.Egress == nil {
		t.Errorf("outcome = %+v", res.Outcome)
	}
}
