package nicsim

import (
	"math"
	"reflect"
	"testing"

	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
)

// Multi-key lookups and less common match kinds, exercised directly
// against the runtime table structures.

// lookupIn is the walk's lookup of values in rt, through a node bound to
// it (freshBind).
func lookupIn(rt *runtimeTable, values []uint64) *storedEntry {
	return freshBind(rt, 0).lookup(values)
}

func TestMultiKeyExactLookup(t *testing.T) {
	tbl := &p4ir.Table{
		Name: "pair",
		Keys: []p4ir.Key{
			{Field: "ipv4.srcAddr", Kind: p4ir.MatchExact, Width: 32},
			{Field: "tcp.dport", Kind: p4ir.MatchExact, Width: 16},
		},
		Actions:       []*p4ir.Action{p4ir.NoopAction("hit"), p4ir.NoopAction("miss")},
		DefaultAction: "miss",
		Entries: []p4ir.Entry{
			{Match: []p4ir.MatchValue{{Value: 10}, {Value: 80}}, Action: "hit"},
		},
	}
	rt, err := buildTable(tbl, tbl.Entries, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r := lookupIn(rt, []uint64{10, 80}); r == nil {
		t.Error("exact pair should hit")
	}
	if r := lookupIn(rt, []uint64{10, 81}); r != nil {
		t.Error("partial match must miss")
	}
	if r := lookupIn(rt, []uint64{11, 80}); r != nil {
		t.Error("partial match must miss")
	}
	if rt.numGroups() != 1 {
		t.Errorf("exact table m = %d, want 1", rt.numGroups())
	}
}

func TestMixedLPMExactKey(t *testing.T) {
	tbl := &p4ir.Table{
		Name: "mixed",
		Keys: []p4ir.Key{
			{Field: "ipv4.dstAddr", Kind: p4ir.MatchLPM, Width: 32},
			{Field: "ipv4.proto", Kind: p4ir.MatchExact, Width: 8},
		},
		Actions:       []*p4ir.Action{p4ir.NoopAction("a"), p4ir.NoopAction("miss")},
		DefaultAction: "miss",
		Entries: []p4ir.Entry{
			{Match: []p4ir.MatchValue{{Value: 0x0a000000, PrefixLen: 8}, {Value: 6}}, Action: "a"},
			{Match: []p4ir.MatchValue{{Value: 0x0a140000, PrefixLen: 16}, {Value: 6}}, Action: "a"},
		},
	}
	rt, err := buildTable(tbl, tbl.Entries, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 10.20.x.x proto 6 matches both prefixes; longest (/16) wins first.
	r := lookupIn(rt, []uint64{0x0a140102, 6})
	if r == nil {
		t.Fatal("should hit")
	}
	if r.match[0].PrefixLen != 16 {
		t.Errorf("longest prefix should win, got /%d", r.match[0].PrefixLen)
	}
	// Wrong proto misses both.
	if r := lookupIn(rt, []uint64{0x0a140102, 17}); r != nil {
		t.Error("proto mismatch should miss")
	}
	if rt.numGroups() != 2 {
		t.Errorf("two distinct prefix lengths: m = %d, want 2", rt.numGroups())
	}
}

func TestRangeKindTreatedAsTernary(t *testing.T) {
	tbl := &p4ir.Table{
		Name: "rng",
		Keys: []p4ir.Key{{Field: "tcp.dport", Kind: p4ir.MatchRange, Width: 16}},
		Actions: []*p4ir.Action{
			p4ir.NoopAction("low"), p4ir.NoopAction("miss"),
		},
		DefaultAction: "miss",
		// Range [0,1023] approximated by mask 0xFC00 == 0 (top 6 bits 0).
		Entries: []p4ir.Entry{
			{Priority: 1, Match: []p4ir.MatchValue{{Value: 0, Mask: 0xfc00}}, Action: "low"},
		},
	}
	rt, err := buildTable(tbl, tbl.Entries, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r := lookupIn(rt, []uint64{80}); r == nil {
		t.Error("port 80 should match the low range")
	}
	if r := lookupIn(rt, []uint64{8080}); r != nil {
		t.Error("port 8080 should miss")
	}
}

func TestDuplicateEntryHigherPriorityWins(t *testing.T) {
	tbl := &p4ir.Table{
		Name: "dup",
		Keys: []p4ir.Key{{Field: "ipv4.srcAddr", Kind: p4ir.MatchTernary, Width: 32}},
		Actions: []*p4ir.Action{
			p4ir.NoopAction("first"), p4ir.NoopAction("second"), p4ir.NoopAction("miss"),
		},
		DefaultAction: "miss",
		Entries: []p4ir.Entry{
			{Priority: 1, Match: []p4ir.MatchValue{{Value: 5, Mask: 0xff}}, Action: "first"},
			{Priority: 9, Match: []p4ir.MatchValue{{Value: 5, Mask: 0xff}}, Action: "second"},
		},
	}
	rt, err := buildTable(tbl, tbl.Entries, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := lookupIn(rt, []uint64{5})
	if r == nil || r.cact.act.Name != "second" {
		t.Errorf("priority 9 duplicate should win, got %+v", r)
	}
}

func TestFixedMOverridesProbeCount(t *testing.T) {
	tbl := &p4ir.Table{
		Name: "lpm",
		Keys: []p4ir.Key{{Field: "ipv4.dstAddr", Kind: p4ir.MatchLPM, Width: 32}},
		Actions: []*p4ir.Action{
			p4ir.NoopAction("a"),
		},
		Entries: []p4ir.Entry{
			{Match: []p4ir.MatchValue{{Value: 0x0a000000, PrefixLen: 8}}, Action: "a"},
		},
	}
	rt, err := buildTable(tbl, tbl.Entries, 3) // emulated NIC pins LPM at 3
	if err != nil {
		t.Fatal(err)
	}
	if m := rt.numGroups(); m != 3 {
		t.Errorf("probes = %d, want fixed 3", m)
	}
}

func TestEntryArgsResolveThroughActionData(t *testing.T) {
	// Action parameters ($0) resolve from entry args at execution.
	prog, err := p4ir.ChainTables("args", []p4ir.TableSpec{{
		Name: "t",
		Keys: []p4ir.Key{{Field: "ipv4.dstAddr", Kind: p4ir.MatchExact, Width: 32}},
		Actions: []*p4ir.Action{
			p4ir.NewAction("set_port", p4ir.Prim("modify_field", "meta.egress_port", "$0")),
			p4ir.NoopAction("miss"),
		},
		DefaultAction: "miss",
		Entries: []p4ir.Entry{
			{Match: []p4ir.MatchValue{{Value: 1}}, Action: "set_port", Args: []string{"42"}},
			{Match: []p4ir.MatchValue{{Value: 2}}, Action: "set_port", Args: []string{"0x1f"}},
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	nic, err := New(prog, Config{Params: testParams()})
	if err != nil {
		t.Fatal(err)
	}
	p1 := pkt(9, 1, 1, 1)
	nic.Process(p1)
	if v := p1.GetID(packet.FieldIDFor("meta.egress_port")); v != 42 {
		t.Errorf("entry arg 42 not applied, got %d", v)
	}
	p2 := pkt(9, 2, 1, 1)
	nic.Process(p2)
	if v := p2.GetID(packet.FieldIDFor("meta.egress_port")); v != 0x1f {
		t.Errorf("hex entry arg not applied, got %d", v)
	}
}

func TestKeyWidthMasking(t *testing.T) {
	// A 16-bit key must ignore bits above the field width on both the
	// entry and the packet side.
	tbl := &p4ir.Table{
		Name:          "narrow",
		Keys:          []p4ir.Key{{Field: "tcp.dport", Kind: p4ir.MatchExact, Width: 16}},
		Actions:       []*p4ir.Action{p4ir.NoopAction("hit"), p4ir.NoopAction("miss")},
		DefaultAction: "miss",
		Entries: []p4ir.Entry{
			{Match: []p4ir.MatchValue{{Value: 0x10050}}, Action: "hit"}, // == 0x50 after masking
		},
	}
	prog := p4ir.NewProgram("w")
	prog.Root = "narrow"
	prog.Tables["narrow"] = tbl
	nic, err := New(prog, Config{Params: testParams()})
	if err != nil {
		t.Fatal(err)
	}
	r := nic.Process(pkt(1, 2, 3, 0x50))
	if r.LatencyNs == 0 {
		t.Error("no processing happened")
	}
	// Lookup directly to observe the masked hit.
	rt := nic.tables["narrow"]
	if res := lookupIn(rt, []uint64{0x50}); res == nil {
		t.Error("entry value above field width should be masked to match")
	}
}

func TestThroughputFormulaAgainstFloor(t *testing.T) {
	pmParams := testParams()
	floor := float64(pmParams.Cores) * 512 * 8 / pmParams.LineRateGbps
	if math.Abs(pmParams.ThroughputGbps(floor, 512)-pmParams.LineRateGbps) > 1e-9 {
		t.Error("floor latency should saturate line rate exactly")
	}
}

// Ensure the emulator rejects entries referencing unknown actions at
// build time rather than at packet time.
func TestBuildTableRejectsGhostAction(t *testing.T) {
	tbl := &p4ir.Table{
		Name:    "bad",
		Keys:    []p4ir.Key{{Field: "ipv4.srcAddr", Kind: p4ir.MatchExact, Width: 32}},
		Actions: []*p4ir.Action{p4ir.NoopAction("a")},
		Entries: []p4ir.Entry{{Match: []p4ir.MatchValue{{Value: 1}}, Action: "ghost"}},
	}
	if _, err := buildTable(tbl, tbl.Entries, 0); err == nil {
		t.Error("ghost action should fail table build")
	}
}

// A refused entry operation — table full, bad arity, unknown action, no
// such entry, a bulk install with one bad entry — must leave the program
// and the lookup store as they were: the store forks, applies, and only
// then is Table.Entries touched.
func TestRefusedEntryOpChangesNeitherProgramNorStore(t *testing.T) {
	spec := exactTable("t", "ipv4.dstAddr", "", e("hit_act", 1), e("hit_act", 2))
	spec.MaxEntries = 3
	prog, err := p4ir.ChainTables("p", []p4ir.TableSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	nic, err := New(prog, Config{Params: testParams()})
	if err != nil {
		t.Fatal(err)
	}
	if err := nic.InsertEntry("t", e("hit_act", 3)); err != nil {
		t.Fatal(err)
	}
	store, plan := nic.tables["t"], nic.plan.Load()
	entries := prog.Clone().Tables["t"].Entries
	for name, op := range map[string]func() error{
		"insert into full table": func() error { return nic.InsertEntry("t", e("hit_act", 4)) },
		"insert, bad arity":      func() error { return nic.InsertEntry("t", e("hit_act", 4, 5)) },
		"insert, ghost action":   func() error { return nic.InsertEntry("t", e("ghost", 4)) },
		"delete, no such entry":  func() error { return nic.DeleteEntry("t", e("", 4).Match) },
		"modify, no such entry":  func() error { return nic.ModifyEntry("t", e("", 4).Match, "hit_act", nil) },
		"modify, ghost action":   func() error { return nic.ModifyEntry("t", e("", 1).Match, "ghost", nil) },
		"replace, one bad entry": func() error { return nic.ReplaceEntries("t", []p4ir.Entry{e("hit_act", 9), e("ghost", 8)}) },
		"no such table":          func() error { return nic.InsertEntry("nope", e("hit_act", 4)) },
	} {
		if err := op(); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if nic.tables["t"] != store || nic.plan.Load() != plan {
			t.Errorf("%s: refused, but a new table was published", name)
		}
		if got := nic.Program().Tables["t"].Entries; !reflect.DeepEqual(got, entries) {
			t.Errorf("%s: refused, but Table.Entries = %+v, want %+v", name, got, entries)
		}
		for v := uint64(1); v <= 9; v++ {
			if hit := lookupIn(nic.tables["t"], []uint64{v}) != nil; hit != (v <= 3) {
				t.Errorf("%s: refused, but lookup(%d) hit = %v", name, v, hit)
			}
		}
	}
}

// ReplaceEntries swaps a table's whole entry set (bulk install): the fork
// becomes a store built afresh from the new entries.
func (n *NIC) ReplaceEntries(table string, entries []p4ir.Entry) error {
	return n.mutateTable(table, func(t *p4ir.Table, rt *runtimeTable) error {
		fresh := make([]p4ir.Entry, len(entries))
		for i, e := range entries {
			fresh[i] = e.Clone()
		}
		built, err := buildTable(t, fresh, n.kern.PinnedM(t))
		if err != nil {
			return err
		}
		*rt, t.Entries = *built, fresh
		return nil
	})
}
