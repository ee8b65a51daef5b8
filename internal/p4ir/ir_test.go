package p4ir

import (
	"slices"
	"strings"
	"testing"
)

// fixture builds the example program of Figure 4: a conditional root, two
// branch tables, a switch-case table, and a sink table.
func fixture(t *testing.T) *Program {
	t.Helper()
	prog, err := NewBuilder("fig4").
		Cond("r", "ipv4.isValid()", "A", "B", "ipv4.version").
		Table(TableSpec{
			Name: "A",
			Keys: []Key{{Field: "ipv4.dstAddr", Kind: MatchTernary}, {Field: "tcp.sport", Kind: MatchExact}},
			Actions: []*Action{
				NewAction("a1", Prim("modify_field", "ipv4.ttl", "ipv4.ttl", "1"), Prim("modify_field", "tcp.dport", "100")),
				NoopAction("a2"),
			},
			Next: "D",
		}).
		Table(TableSpec{
			Name:    "B",
			Keys:    []Key{{Field: "ipv4.srcAddr", Kind: MatchExact}},
			Actions: []*Action{NewAction("b1", Prim("modify_field", "meta.x", "1")), NoopAction("b2")},
			ActionNext: map[string]string{
				"b1": "C",
				"b2": "D",
			},
		}).
		Table(TableSpec{
			Name:    "C",
			Keys:    []Key{{Field: "meta.x", Kind: MatchExact}},
			Actions: []*Action{NoopAction("c1")},
			Next:    "D",
		}).
		Table(TableSpec{
			Name:    "D",
			Keys:    []Key{{Field: "ipv4.dstAddr", Kind: MatchLPM}},
			Actions: []*Action{ForwardAction("fwd"), DropAction()},
		}).
		Root("r").
		Build()
	if err != nil {
		t.Fatalf("fixture: %v", err)
	}
	return prog
}

func TestValidateFixture(t *testing.T) {
	prog := fixture(t)
	if err := prog.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestTopoOrder(t *testing.T) {
	prog := fixture(t)
	order, err := prog.TopoOrder()
	if err != nil {
		t.Fatalf("TopoOrder: %v", err)
	}
	pos := map[string]int{}
	for i, n := range order {
		pos[n] = i
	}
	for _, edge := range [][2]string{{"r", "A"}, {"r", "B"}, {"A", "D"}, {"B", "C"}, {"B", "D"}, {"C", "D"}} {
		if pos[edge[0]] >= pos[edge[1]] {
			t.Errorf("topo order violates edge %v: %v", edge, order)
		}
	}
	if len(order) != 5 {
		t.Errorf("order has %d nodes, want 5", len(order))
	}
}

func TestCycleDetection(t *testing.T) {
	prog := NewProgram("cyclic")
	prog.Root = "X"
	prog.Tables["X"] = &Table{Name: "X", Actions: []*Action{NoopAction("n")}, BaseNext: "Y", DefaultAction: "n"}
	prog.Tables["Y"] = &Table{Name: "Y", Actions: []*Action{NoopAction("n")}, BaseNext: "X", DefaultAction: "n"}
	if err := prog.Validate(); err == nil {
		t.Fatal("Validate should reject a cyclic graph")
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Program
	}{
		{"dangling root", func() *Program {
			p := NewProgram("x")
			p.Root = "missing"
			return p
		}},
		{"dangling next", func() *Program {
			p := NewProgram("x")
			p.Root = "T"
			p.Tables["T"] = &Table{Name: "T", Actions: []*Action{NoopAction("n")}, BaseNext: "gone", DefaultAction: "n"}
			return p
		}},
		{"bad default", func() *Program {
			p := NewProgram("x")
			p.Root = "T"
			p.Tables["T"] = &Table{Name: "T", Actions: []*Action{NoopAction("n")}, DefaultAction: "nope"}
			return p
		}},
		{"entry arity", func() *Program {
			p := NewProgram("x")
			p.Root = "T"
			p.Tables["T"] = &Table{
				Name: "T", Keys: []Key{{Field: "f.a", Kind: MatchExact}},
				Actions:       []*Action{NoopAction("n")},
				DefaultAction: "n",
				Entries:       []Entry{{Match: nil, Action: "n"}},
			}
			return p
		}},
		{"entry unknown action", func() *Program {
			p := NewProgram("x")
			p.Root = "T"
			p.Tables["T"] = &Table{
				Name: "T", Keys: []Key{{Field: "f.a", Kind: MatchExact}},
				Actions:       []*Action{NoopAction("n")},
				DefaultAction: "n",
				Entries:       []Entry{{Match: []MatchValue{{Value: 1}}, Action: "ghost"}},
			}
			return p
		}},
		{"switch-case unknown action", func() *Program {
			p := NewProgram("x")
			p.Root = "T"
			p.Tables["T"] = &Table{
				Name: "T", Actions: []*Action{NoopAction("n")}, DefaultAction: "n",
				ActionNext: map[string]string{"ghost": ""},
			}
			return p
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.build().Validate(); err == nil {
				t.Errorf("Validate accepted invalid program (%s)", c.name)
			}
		})
	}
}

func TestEmptyProgramValid(t *testing.T) {
	if err := NewProgram("empty").Validate(); err != nil {
		t.Errorf("empty program should validate: %v", err)
	}
}

func TestMatchComplexity(t *testing.T) {
	exact := &Table{Keys: []Key{{Field: "a.b", Kind: MatchExact}}}
	if got := exact.MatchComplexity(); got != 1 {
		t.Errorf("exact m = %d, want 1", got)
	}
	lpm := &Table{Keys: []Key{{Field: "a.b", Kind: MatchLPM}}}
	if got := lpm.MatchComplexity(); got != DefaultLPMPrefixes {
		t.Errorf("empty LPM m = %d, want default %d", got, DefaultLPMPrefixes)
	}
	lpm.Entries = []Entry{
		{Match: []MatchValue{{Value: 1, PrefixLen: 8}}, Action: "x"},
		{Match: []MatchValue{{Value: 2, PrefixLen: 8}}, Action: "x"},
		{Match: []MatchValue{{Value: 3, PrefixLen: 24}}, Action: "x"},
	}
	if got := lpm.MatchComplexity(); got != 2 {
		t.Errorf("LPM with 2 distinct prefixes m = %d, want 2", got)
	}
	tern := &Table{Keys: []Key{{Field: "a.b", Kind: MatchTernary}}}
	if got := tern.MatchComplexity(); got != DefaultTernaryMasks {
		t.Errorf("empty ternary m = %d, want default %d", got, DefaultTernaryMasks)
	}
	tern.Entries = []Entry{
		{Match: []MatchValue{{Value: 1, Mask: 0xff}}, Action: "x"},
		{Match: []MatchValue{{Value: 2, Mask: 0xffff}}, Action: "x"},
		{Match: []MatchValue{{Value: 3, Mask: 0xff}}, Action: "x"},
	}
	if got := tern.MatchComplexity(); got != 2 {
		t.Errorf("ternary with 2 distinct masks m = %d, want 2", got)
	}
}

func TestWidestMatchKind(t *testing.T) {
	tbl := &Table{Keys: []Key{
		{Field: "a.a", Kind: MatchExact},
		{Field: "a.b", Kind: MatchLPM},
	}}
	if got := tbl.WidestMatchKind(); got != MatchLPM {
		t.Errorf("widest = %v, want lpm", got)
	}
	tbl.Keys = append(tbl.Keys, Key{Field: "a.c", Kind: MatchTernary})
	if got := tbl.WidestMatchKind(); got != MatchTernary {
		t.Errorf("widest = %v, want ternary", got)
	}
}

func TestDropDetection(t *testing.T) {
	if !DropAction().Drops() {
		t.Error("DropAction should drop")
	}
	if NoopAction("n").Drops() {
		t.Error("noop should not drop")
	}
	tbl := &Table{Actions: []*Action{NoopAction("a"), DropAction()}}
	if !tbl.HasDropAction() {
		t.Error("table with drop action should report HasDropAction")
	}
}

func TestReadWriteSets(t *testing.T) {
	a := NewAction("rewrite",
		Prim("modify_field", "ipv4.ttl", "ipv4.ttl", "1"),
		Prim("modify_field", "tcp.dport", "100"),
	)
	writes := a.WriteSet()
	if len(writes) != 2 || writes[0] != "ipv4.ttl" || writes[1] != "tcp.dport" {
		t.Errorf("WriteSet = %v", writes)
	}
	reads := a.ReadSet()
	if len(reads) != 1 || reads[0] != "ipv4.ttl" {
		t.Errorf("ReadSet = %v", reads)
	}
	// forward writes meta.egress_port and reads its operand; nothing after
	// a drop runs.
	a = NewAction("fwd",
		Prim("forward", "meta.x"),
		Prim("add", "meta.n", "meta.n", "ipv4.ttl"),
		Prim("drop"),
		Prim("modify_field", "meta.dead", "meta.y"),
	)
	if got, want := a.WriteSet(), []string{"meta.egress_port", "meta.n"}; !slices.Equal(got, want) {
		t.Errorf("WriteSet = %v, want %v", got, want)
	}
	if got, want := a.ReadSet(), []string{"meta.x", "meta.n", "ipv4.ttl"}; !slices.Equal(got, want) {
		t.Errorf("ReadSet = %v, want %v", got, want)
	}
}

func TestNextForSwitchCase(t *testing.T) {
	prog := fixture(t)
	b := prog.Tables["B"]
	if got := b.NextFor("b1"); got != "C" {
		t.Errorf("NextFor(b1) = %q, want C", got)
	}
	if got := b.NextFor("b2"); got != "D" {
		t.Errorf("NextFor(b2) = %q, want D", got)
	}
	a := prog.Tables["A"]
	if got := a.NextFor("a1"); got != "D" {
		t.Errorf("plain table NextFor = %q, want D", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	prog := fixture(t)
	prog.Tables["D"].Entries = []Entry{
		{Match: []MatchValue{{Value: 10, PrefixLen: 24}}, Action: "fwd", Args: []string{"2"}},
	}
	clone := prog.Clone()
	clone.Tables["D"].Entries[0].Match[0].Value = 99
	clone.Tables["A"].Actions[0].Primitives[0].Args[0] = "changed"
	clone.Tables["B"].ActionNext["b1"] = "D"
	if prog.Tables["D"].Entries[0].Match[0].Value != 10 {
		t.Error("entry mutation leaked into original")
	}
	if prog.Tables["A"].Actions[0].Primitives[0].Args[0] != "ipv4.ttl" {
		t.Error("primitive mutation leaked into original")
	}
	if prog.Tables["B"].ActionNext["b1"] != "C" {
		t.Error("ActionNext mutation leaked into original")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	prog := fixture(t)
	prog.Tables["D"].Entries = []Entry{
		{Priority: 5, Match: []MatchValue{{Value: 0x0a000000, PrefixLen: 8}}, Action: "fwd", Args: []string{"3"}},
	}
	data, err := prog.MarshalJSON()
	if err != nil {
		t.Fatalf("MarshalJSON: %v", err)
	}
	back := &Program{}
	if err := back.UnmarshalJSON(data); err != nil {
		t.Fatalf("UnmarshalJSON: %v", err)
	}
	if back.Root != prog.Root || back.Name != prog.Name {
		t.Errorf("root/name mismatch: %q/%q", back.Root, back.Name)
	}
	if back.NumNodes() != prog.NumNodes() {
		t.Fatalf("node count %d, want %d", back.NumNodes(), prog.NumNodes())
	}
	d := back.Tables["D"]
	if len(d.Entries) != 1 || d.Entries[0].Match[0].PrefixLen != 8 || d.Entries[0].Args[0] != "3" {
		t.Errorf("entry did not round-trip: %+v", d.Entries)
	}
	if back.Tables["B"].ActionNext["b1"] != "C" {
		t.Error("switch-case successors did not round-trip")
	}
	if back.Tables["A"].Keys[0].Kind != MatchTernary {
		t.Error("match kind did not round-trip")
	}
	// Second round trip must be byte-identical (deterministic marshaling).
	data2, err := back.MarshalJSON()
	if err != nil {
		t.Fatalf("second MarshalJSON: %v", err)
	}
	if string(data) != string(data2) {
		t.Error("marshaling is not deterministic")
	}
}

func TestUnmarshalRejectsInvalid(t *testing.T) {
	bad := `{"name":"x","init_table":"T","tables":[{"name":"T","key":[],"actions":[{"name":"n","primitives":[]}],"base_next":"missing"}]}`
	p := &Program{}
	if err := p.UnmarshalJSON([]byte(bad)); err == nil {
		t.Error("UnmarshalJSON accepted program with dangling reference")
	}
	badKind := `{"name":"x","init_table":"T","tables":[{"name":"T","key":[{"target":"a.b","match_type":"bogus"}],"actions":[{"name":"n","primitives":[]}]}]}`
	if err := p.UnmarshalJSON([]byte(badKind)); err == nil {
		t.Error("UnmarshalJSON accepted unknown match kind")
	}
}

func TestChainTables(t *testing.T) {
	specs := []TableSpec{
		{Name: "t1", Actions: []*Action{NoopAction("n")}},
		{Name: "t2", Actions: []*Action{NoopAction("n")}},
		{Name: "t3", Actions: []*Action{NoopAction("n")}},
	}
	prog, err := ChainTables("chain", specs)
	if err != nil {
		t.Fatalf("ChainTables: %v", err)
	}
	if prog.Root != "t1" {
		t.Errorf("root = %q, want t1", prog.Root)
	}
	if prog.Tables["t1"].BaseNext != "t2" || prog.Tables["t2"].BaseNext != "t3" {
		t.Error("chain not linked")
	}
	if prog.Tables["t3"].BaseNext != "" {
		t.Error("last table should be sink")
	}
}

func TestGraphvizContainsNodes(t *testing.T) {
	dot := fixture(t).Graphviz()
	for _, want := range []string{`"A"`, `"B"`, `"C"`, `"D"`, `"r"`, "digraph", "diamond"} {
		if !strings.Contains(dot, want) {
			t.Errorf("Graphviz output missing %s", want)
		}
	}
}

func TestPredecessors(t *testing.T) {
	ix := NewIndex(fixture(t))
	var dPreds []string
	for _, u := range ix.Pred(ix.ID("D")) {
		dPreds = append(dPreds, ix.Name(u))
	}
	if len(dPreds) != 3 || dPreds[0] != "A" || dPreds[1] != "B" || dPreds[2] != "C" {
		t.Errorf("D has preds %v, want [A B C]", dPreds)
	}
	if p := ix.Pred(ix.ID("r")); len(p) != 0 {
		t.Errorf("root should have no predecessors, got %v", p)
	}
}

func TestParseMatchKindRoundTrip(t *testing.T) {
	for _, k := range []MatchKind{MatchExact, MatchLPM, MatchTernary, MatchRange} {
		got, err := ParseMatchKind(k.String())
		if err != nil || got != k {
			t.Errorf("round trip %v failed: %v %v", k, got, err)
		}
	}
	if _, err := ParseMatchKind("nope"); err == nil {
		t.Error("ParseMatchKind should reject unknown names")
	}
}

func TestMemoryBytesScalesWithM(t *testing.T) {
	exact := &Table{
		Keys:    []Key{{Field: "a.b", Kind: MatchExact}},
		Entries: []Entry{{Match: []MatchValue{{Value: 1}}, Action: "x"}},
	}
	tern := &Table{
		Keys: []Key{{Field: "a.b", Kind: MatchTernary}},
		Entries: []Entry{
			{Match: []MatchValue{{Value: 1, Mask: 0xff}}, Action: "x"},
		},
	}
	if exact.MemoryBytes() >= tern.MemoryBytes()*2 {
		t.Errorf("ternary entry should cost more: exact=%d ternary=%d", exact.MemoryBytes(), tern.MemoryBytes())
	}
}
