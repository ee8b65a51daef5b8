package p4ir

import (
	"maps"
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
			Actions: []*Action{NewAction("fwd", Prim("modify_field", "meta.egress_port", "1")), DropAction()},
		}).
		Root("r").
		build()
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

// A clone shares its source's entries and actions, and neither ever sees
// the other's entry operations: an insert, a delete or a modify, and its
// undo, on the original, on a clone or on a clone of a clone — whether or
// not the table knows if its array is shared — shows in that program only.
// After its first copy a table writes its array in place. A clone's graph
// is its own: an ActionNext edit does not leak.
func TestCloneSharesOnlyValues(t *testing.T) {
	prog := fixture(t)
	fwd := func(v uint64) Entry {
		return Entry{Match: []MatchValue{{Value: v, PrefixLen: 24}}, Action: "fwd", Args: []string{"1"}}
	}
	for _, v := range []uint64{10, 20, 30} {
		if _, err := prog.InsertEntry("D", fwd(v)); err != nil {
			t.Fatal(err)
		}
	}
	built := fixture(t) // it was built: it cannot tell who shares its array
	built.Tables["D"].Entries = []Entry{fwd(10), fwd(20), fwd(30)}
	inner := built.Clone()
	progs := map[string]*Program{
		"written original": prog, "clone": prog.Clone(), "built original": built,
		"clone of the built": inner, "clone of a clone": inner.Clone(),
	}
	progs["second clone"] = progs["clone"].Clone()
	if &prog.Tables["D"].Entries[0] != &progs["second clone"].Tables["D"].Entries[0] ||
		prog.Tables["A"].Actions[0] != progs["clone"].Tables["A"].Actions[0] {
		t.Fatal("a clone copied the entries or the actions")
	}
	ops := []struct {
		name string
		do   func(p *Program) (func(), error)
	}{
		{"insert", func(p *Program) (func(), error) { return p.InsertEntry("D", fwd(40)) }},
		{"delete", func(p *Program) (func(), error) { return p.DeleteEntry("D", fwd(20).Match) }},
		{"modify", func(p *Program) (func(), error) { return p.ModifyEntry("D", fwd(10).Match, "drop_packet", nil) }},
	}
	digests := func() map[string]Digest {
		out := map[string]Digest{}
		for name, p := range progs {
			out[name] = p.Digest()
		}
		return out
	}
	for name, p := range progs {
		for _, op := range ops {
			before := digests()
			undo, err := op.do(p)
			if err != nil {
				t.Fatalf("%s on the %s: %v", op.name, name, err)
			}
			for other, d := range digests() {
				if changed := d != before[other]; changed != (other == name) {
					t.Errorf("%s on the %s: the %s changed: %v", op.name, name, other, changed)
				}
			}
			undo()
			if after := digests(); !maps.Equal(after, before) {
				t.Errorf("%s on the %s and its undo: digests %v, want %v", op.name, name, after, before)
			}
		}
		// Every table above has copied by now: the next write is in place.
		at := &p.Tables["D"].Entries[0]
		if _, err := p.ModifyEntry("D", fwd(30).Match, "fwd", []string{"2"}); err != nil {
			t.Fatal(err)
		}
		if &p.Tables["D"].Entries[0] != at {
			t.Errorf("the %s copied an array it holds alone", name)
		}
	}
	clone := prog.Clone()
	clone.Tables["B"].ActionNext["b1"] = "D"
	if prog.Tables["B"].ActionNext["b1"] != "C" {
		t.Error("ActionNext mutation leaked into original")
	}
}

// Every accepted entry operation moves the program's entry version to a
// fresh value; a refused operation moves nothing, changes nothing and
// returns no undo. Undone in reverse order, the operations leave the
// entries byte for byte as they were (the digest covers them) and each
// undo restores the version its operation found. An undo after another
// change takes a fresh version instead: no value names two sets of entries.
func TestEntryOpsCountAndUndo(t *testing.T) {
	prog := fixture(t)
	prog.Tables["D"].MaxEntries = 3
	fwd := func(v uint64) Entry {
		return Entry{Match: []MatchValue{{Value: v, PrefixLen: 24}}, Action: "fwd", Args: []string{"1"}}
	}
	for _, v := range []uint64{10, 20} {
		if _, err := prog.InsertEntry("D", fwd(v)); err != nil {
			t.Fatal(err)
		}
	}
	start, before := prog.EntryVersion(), prog.Digest()
	if start != 2 {
		t.Fatalf("two inserts: version %d, want 2", start)
	}
	ten := fwd(10).Match
	var undos []func()
	do := func(what string, undo func(), err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		undos = append(undos, undo)
		if v := prog.EntryVersion(); v != start+uint64(len(undos)) {
			t.Errorf("%s: version %d, want %d", what, v, start+uint64(len(undos)))
		}
	}
	refused := func(what string, undo func(), err error) {
		t.Helper()
		if err == nil || undo != nil {
			t.Errorf("%s: accepted (err %v, undo %v)", what, err, undo != nil)
		}
	}
	undo, err := prog.InsertEntry("D", fwd(30))
	do("insert", undo, err)
	full, version := prog.Digest(), prog.EntryVersion()
	undo, err = prog.InsertEntry("D", fwd(40))
	refused("insert into a full table", undo, err)
	undo, err = prog.InsertEntry("nope", fwd(40))
	refused("insert into no table", undo, err)
	undo, err = prog.InsertEntry("A", Entry{Match: []MatchValue{{Value: 1}}, Action: "a1"})
	refused("insert of the wrong arity", undo, err)
	undo, err = prog.ModifyEntry("D", ten, "nope", nil)
	refused("modify to an unknown action", undo, err)
	undo, err = prog.DeleteEntry("D", fwd(99).Match)
	refused("delete of no entry", undo, err)
	if prog.Digest() != full || prog.EntryVersion() != version {
		t.Fatal("a refused operation changed the program")
	}
	undo, err = prog.ModifyEntry("D", ten, "drop_packet", nil)
	do("modify", undo, err)
	undo, err = prog.DeleteEntry("D", fwd(20).Match)
	do("delete", undo, err)
	for i := len(undos) - 1; i >= 0; i-- {
		undos[i]()
	}
	if prog.Digest() != before {
		t.Error("undone operations left the entries changed")
	}
	if v := prog.EntryVersion(); v != start {
		t.Errorf("after three operations and their undos: version %d, want %d restored", v, start)
	}

	// Not restored: an insert into D, then one into B, then D's undo. The
	// entries are those of no earlier version, and neither are they after
	// B's undo too, so each undo takes a version never handed out before.
	seen := map[uint64]bool{start: true}
	for v := start + 1; v <= start+3; v++ {
		seen[v] = true // the three operations above
	}
	undoD, err := prog.InsertEntry("D", fwd(30))
	do("insert into D", undoD, err)
	seen[prog.EntryVersion()] = true
	undoB, err := prog.InsertEntry("B", Entry{Match: []MatchValue{{Value: 7}}, Action: "b1"})
	do("insert into B", undoB, err)
	seen[prog.EntryVersion()] = true
	for _, u := range []struct {
		what string
		undo func()
	}{{"D's undo after B's insert", undoD}, {"B's undo after D's", undoB}} {
		u.undo()
		if v := prog.EntryVersion(); seen[v] {
			t.Errorf("%s: version %d was handed out before", u.what, v)
		} else {
			seen[v] = true
		}
	}
	if prog.Digest() != before {
		t.Error("the undone inserts left the entries changed")
	}
	if prog.Clone().EntryVersion() != 0 {
		t.Error("a clone inherited the entry version")
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
