package deps

import (
	"testing"

	"pipeleon/internal/p4ir"
)

// prog builds: writer (writes meta.x) -> reader (keys on meta.x)
//
//	-> acl1, acl2 (independent drop tables on different fields)
func prog(t *testing.T) *p4ir.Program {
	t.Helper()
	p, err := p4ir.ChainTables("deps", []p4ir.TableSpec{
		{Name: "writer",
			Keys:    []p4ir.Key{{Field: "ipv4.dstAddr", Kind: p4ir.MatchExact}},
			Actions: []*p4ir.Action{p4ir.NewAction("set", p4ir.Prim("modify_field", "meta.x", "1"))}},
		{Name: "reader",
			Keys:    []p4ir.Key{{Field: "meta.x", Kind: p4ir.MatchExact}},
			Actions: []*p4ir.Action{p4ir.NoopAction("n")}},
		{Name: "acl1",
			Keys:    []p4ir.Key{{Field: "ipv4.srcAddr", Kind: p4ir.MatchExact}},
			Actions: []*p4ir.Action{p4ir.DropAction(), p4ir.NoopAction("allow")}},
		{Name: "acl2",
			Keys:    []p4ir.Key{{Field: "tcp.dport", Kind: p4ir.MatchExact}},
			Actions: []*p4ir.Action{p4ir.DropAction(), p4ir.NoopAction("allow")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// analyzer builds an analyzer over p and a lookup of its node IDs by name.
func analyzer(p *p4ir.Program) (*Analyzer, func(names ...string) []int32) {
	ix := p4ir.NewIndex(p)
	return New(ix), func(names ...string) []int32 {
		ids := make([]int32, len(names))
		for i, n := range names {
			ids[i] = ix.ID(n)
		}
		return ids
	}
}

// pair returns the IDs of two named nodes.
func pair(ids func(...string) []int32, u, v string) (int32, int32) {
	uv := ids(u, v)
	return uv[0], uv[1]
}

func TestTableEffects(t *testing.T) {
	a, ids := analyzer(prog(t))
	field := a.FieldNum
	e := a.Effects(ids("writer")[0])
	if !e.Writes.Has(field("meta.x")) {
		t.Error("writer should write meta.x")
	}
	if !e.Reads.Has(field("ipv4.dstAddr")) || !e.KeyReads.Has(field("ipv4.dstAddr")) {
		t.Error("writer should read its key field")
	}
	if e.Drops {
		t.Error("writer does not drop")
	}
	if !a.Effects(ids("acl1")[0]).Drops {
		t.Error("acl1 should drop")
	}
	if e := a.Effects(-1); e.Reads != nil || e.Writes != nil || e.Drops {
		t.Errorf("the ID of no node has effects %+v", e)
	}
}

func TestDependencyKinds(t *testing.T) {
	a, ids := analyzer(prog(t))
	if got := a.Dependency(pair(ids, "writer", "reader")); got != DepRAW {
		t.Errorf("writer->reader = %v, want RAW", got)
	}
	if got := a.Dependency(pair(ids, "reader", "writer")); got != DepWAR {
		t.Errorf("reader->writer = %v, want WAR", got)
	}
	if got := a.Dependency(pair(ids, "acl1", "acl2")); got != DepNone {
		t.Errorf("acl1->acl2 = %v, want none", got)
	}
}

func TestWAWDependency(t *testing.T) {
	p, err := p4ir.ChainTables("waw", []p4ir.TableSpec{
		{Name: "w1", Actions: []*p4ir.Action{p4ir.NewAction("a", p4ir.Prim("modify_field", "meta.y", "1"))}},
		{Name: "w2", Actions: []*p4ir.Action{p4ir.NewAction("a", p4ir.Prim("modify_field", "meta.y", "2"))}},
	})
	if err != nil {
		t.Fatal(err)
	}
	a, ids := analyzer(p)
	if got := a.Dependency(pair(ids, "w1", "w2")); got != DepWAW {
		t.Errorf("w1->w2 = %v, want WAW", got)
	}
	if got := a.Dependency(pair(ids, "w2", "w1")); got != DepWAW {
		t.Errorf("w2->w1 = %v, want WAW", got)
	}
}

// No dependency in either direction is what reordering needs (§3.2.1:
// reordering "alters the table sequence when there are no dependencies
// across these tables").
func TestIndependentACLs(t *testing.T) {
	a, ids := analyzer(prog(t))
	if a.Dependency(pair(ids, "acl1", "acl2")) != DepNone || a.Dependency(pair(ids, "acl2", "acl1")) != DepNone {
		t.Error("disjoint-field ACL tables should be independent (freely reorderable)")
	}
	if a.Dependency(pair(ids, "reader", "writer")) == DepNone {
		t.Error("writer/reader must not be independent")
	}
}

func TestValidOrder(t *testing.T) {
	a, ids := analyzer(prog(t))
	orig := ids("writer", "reader", "acl1", "acl2")
	// Swapping the two ACLs preserves dependencies.
	if !a.ValidOrder(orig, ids("writer", "reader", "acl2", "acl1")) {
		t.Error("ACL swap should be a valid order")
	}
	// Promoting ACLs before writer/reader is fine too (no deps with them).
	if !a.ValidOrder(orig, ids("acl2", "acl1", "writer", "reader")) {
		t.Error("promoting independent ACLs should be valid")
	}
	// Reversing writer and reader violates RAW.
	if a.ValidOrder(orig, ids("reader", "writer", "acl1", "acl2")) {
		t.Error("reader before writer must be invalid")
	}
	// Wrong length or wrong members.
	if a.ValidOrder(orig, ids("writer", "reader", "acl1")) {
		t.Error("length mismatch must be invalid")
	}
	if a.ValidOrder(orig, ids("writer", "reader", "acl1", "ghost")) {
		t.Error("unknown member must be invalid")
	}
}

func TestCanMerge(t *testing.T) {
	a, ids := analyzer(prog(t))
	if a.CanMerge(ids("writer", "reader")) {
		t.Error("cannot merge when earlier table writes later table's key")
	}
	// A dropping table mid-span blocks the merge...
	if a.CanMerge(ids("acl1", "acl2")) {
		t.Error("dropping table mid-span should block merge")
	}
	// ...but a final dropping table is fine.
	p2, err := p4ir.ChainTables("m", []p4ir.TableSpec{
		{Name: "plain", Keys: []p4ir.Key{{Field: "ipv4.dstAddr", Kind: p4ir.MatchExact}},
			Actions: []*p4ir.Action{p4ir.NoopAction("n")}},
		{Name: "acl", Keys: []p4ir.Key{{Field: "tcp.dport", Kind: p4ir.MatchExact}},
			Actions: []*p4ir.Action{p4ir.DropAction(), p4ir.NoopAction("allow")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	a2, ids2 := analyzer(p2)
	if !a2.CanMerge(ids2("plain", "acl")) {
		t.Error("merge with final dropping table should be legal")
	}
	if a2.CanMerge(ids2("plain")) {
		t.Error("single-table merge is meaningless")
	}
}

func TestCanMergeRejectsSwitchCase(t *testing.T) {
	p := p4ir.NewBuilder("sc").
		Table(p4ir.TableSpec{Name: "sw",
			Actions:    []*p4ir.Action{p4ir.NoopAction("x"), p4ir.NoopAction("y")},
			ActionNext: map[string]string{"x": "t2", "y": "t2"}}).
		Table(p4ir.TableSpec{Name: "t2", Actions: []*p4ir.Action{p4ir.NoopAction("n")}}).
		Root("sw").MustBuild()
	a, ids := analyzer(p)
	if a.CanMerge(ids("sw", "t2")) {
		t.Error("switch-case table must not merge")
	}
	if a.CanCache(ids("sw", "t2")) {
		t.Error("switch-case table must not be cached")
	}
}

func TestCanCache(t *testing.T) {
	a, ids := analyzer(prog(t))
	if a.CanCache(ids("writer", "reader")) {
		t.Error("span where writer modifies reader's key cannot be cached")
	}
	if !a.CanCache(ids("acl1", "acl2")) {
		t.Error("independent ACLs should be cacheable (drop verdict cached)")
	}
	if !a.CanCache(ids("reader", "acl1")) {
		t.Error("reader+acl1 do not interfere; should be cacheable")
	}
	if a.CanCache(nil) {
		t.Error("empty span cannot be cached")
	}
}

func TestCacheKeyUnion(t *testing.T) {
	a, ids := analyzer(prog(t))
	key := a.CacheKey(ids("acl2", "acl1"))
	if len(key) != 2 || key[0] != "ipv4.srcAddr" || key[1] != "tcp.dport" {
		t.Errorf("CacheKey = %v, want the union in name order", key)
	}
}

func TestFieldsFirstAndNext(t *testing.T) {
	set := func(fs ...int) Fields {
		s := make(Fields, 3)
		for _, f := range fs {
			s[f>>6] |= 1 << (f & 63)
		}
		return s
	}
	a, b, c := set(1, 70, 130), set(70, 130, 131), set(0, 64, 129)
	if b.First(c) != -1 || a.First(Fields{}) != -1 || a.First(nil) != -1 {
		t.Error("First finds a field in disjoint sets")
	}
	if f := a.First(b); f != 70 {
		t.Errorf("First = %d, want the lowest common field 70", f)
	}
	if f := a.First(c); f != -1 {
		t.Errorf("First of disjoint sets = %d, want -1", f)
	}
	var got []int
	for f := b.Next(0); f >= 0; f = b.Next(f + 1) {
		got = append(got, f)
	}
	if len(got) != 3 || got[0] != 70 || got[1] != 130 || got[2] != 131 {
		t.Errorf("Next visits %v, want [70 130 131]", got)
	}
	if !b.Has(131) || b.Has(129) || b.Has(-1) || b.Has(500) {
		t.Error("Has misbehaves")
	}
}

// Fields are numbered by name, whatever order the program first names
// them in: the lowest common bit is then the lexicographically first
// common field, the witness the analyzer's diagnostics print. The
// conditional's fields are numbered too, and it is a pure reader.
func TestNumberingInNameOrder(t *testing.T) {
	p, err := p4ir.ChainTables("order", []p4ir.TableSpec{
		{Name: "t1", Actions: []*p4ir.Action{p4ir.NewAction("a",
			p4ir.Prim("modify_field", "meta.z", "1"), p4ir.Prim("modify_field", "meta.m", "1"),
			p4ir.Prim("modify_field", "meta.b", "1"))}},
		{Name: "t2", Keys: []p4ir.Key{{Field: "meta.z", Kind: p4ir.MatchExact}, {Field: "meta.b", Kind: p4ir.MatchExact}},
			Actions: []*p4ir.Action{p4ir.NewAction("a", p4ir.Prim("add", "meta.y", "meta.m", "1"))}},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Conds["c"] = &p4ir.Conditional{Name: "c", Expr: "meta.a > 1", ReadFields: []string{"meta.a", "meta.y"}}
	a, ids := analyzer(p)
	for i, want := range []string{"meta.a", "meta.b", "meta.m", "meta.y", "meta.z"} {
		if a.Field(i) != want || a.FieldNum(want) != i {
			t.Errorf("field %d = %q, want %q", i, a.Field(i), want)
		}
	}
	if a.NumFields() != 5 || a.FieldNum("meta.none") != -1 || a.Field(-1) != "" {
		t.Errorf("%d fields numbered, want 5", a.NumFields())
	}
	kind, f := a.Witness(pair(ids, "t1", "t2"))
	if kind != DepRAW || a.Field(f) != "meta.b" {
		t.Errorf("t1 -> t2: %v on %q, want read-after-write on meta.b", kind, a.Field(f))
	}
	if kind, f := a.Witness(pair(ids, "c", "t2")); kind != DepWAR || a.Field(f) != "meta.y" {
		t.Errorf("c -> t2: %v on field %d, want write-after-read on meta.y", kind, f)
	}
	if key := a.CacheKey(ids("t2")); len(key) != 2 || key[0] != "meta.b" || key[1] != "meta.z" {
		t.Errorf("CacheKey = %v, want [meta.b meta.z]", key)
	}
}

// forward writes meta.egress_port and reads its operand: a table matching
// the port depends on it (RAW), a table setting the port too (WAW), and a
// forward of meta.x depends on the table writing meta.x.
func TestForwardDependencies(t *testing.T) {
	p, err := p4ir.ChainTables("fwd", []p4ir.TableSpec{
		{Name: "setx", Actions: []*p4ir.Action{p4ir.NewAction("s", p4ir.Prim("modify_field", "meta.x", "1"))}},
		{Name: "route", Actions: []*p4ir.Action{p4ir.NewAction("f", p4ir.Prim("forward", "meta.x"))}},
		{Name: "port_acl", Keys: []p4ir.Key{{Field: "meta.egress_port", Kind: p4ir.MatchExact}},
			Actions: []*p4ir.Action{p4ir.DropAction()}},
		{Name: "repin", Actions: []*p4ir.Action{p4ir.NewAction("p", p4ir.Prim("modify_field", "meta.egress_port", "7"))}},
	})
	if err != nil {
		t.Fatal(err)
	}
	a, ids := analyzer(p)
	for _, c := range []struct {
		earlier, later string
		want           DependencyKind
	}{{"setx", "route", DepRAW}, {"route", "port_acl", DepRAW}, {"route", "repin", DepWAW}} {
		if got := a.Dependency(pair(ids, c.earlier, c.later)); got != c.want {
			t.Errorf("%s -> %s: %v, want %v", c.earlier, c.later, got, c.want)
		}
	}
}
