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

func TestTableEffects(t *testing.T) {
	p := prog(t)
	e := TableEffects(p.Tables["writer"])
	if !e.Writes["meta.x"] {
		t.Error("writer should write meta.x")
	}
	if !e.Reads["ipv4.dstAddr"] || !e.KeyReads["ipv4.dstAddr"] {
		t.Error("writer should read its key field")
	}
	if e.Drops {
		t.Error("writer does not drop")
	}
	if !TableEffects(p.Tables["acl1"]).Drops {
		t.Error("acl1 should drop")
	}
}

func TestDependencyKinds(t *testing.T) {
	a := NewAnalyzer(prog(t))
	if got := a.Dependency("writer", "reader"); got != DepRAW {
		t.Errorf("writer->reader = %v, want RAW", got)
	}
	if got := a.Dependency("reader", "writer"); got != DepWAR {
		t.Errorf("reader->writer = %v, want WAR", got)
	}
	if got := a.Dependency("acl1", "acl2"); got != DepNone {
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
	a := NewAnalyzer(p)
	if got := a.Dependency("w1", "w2"); got != DepWAW {
		t.Errorf("w1->w2 = %v, want WAW", got)
	}
	if a.Independent("w1", "w2") {
		t.Error("WAW tables are not independent")
	}
}

func TestIndependentACLs(t *testing.T) {
	a := NewAnalyzer(prog(t))
	if !a.Independent("acl1", "acl2") {
		t.Error("disjoint-field ACL tables should be independent (freely reorderable)")
	}
	if a.Independent("writer", "reader") {
		t.Error("writer/reader must not be independent")
	}
}

func TestValidOrder(t *testing.T) {
	a := NewAnalyzer(prog(t))
	orig := []string{"writer", "reader", "acl1", "acl2"}
	// Swapping the two ACLs preserves dependencies.
	if !a.ValidOrder(orig, []string{"writer", "reader", "acl2", "acl1"}) {
		t.Error("ACL swap should be a valid order")
	}
	// Promoting ACLs before writer/reader is fine too (no deps with them).
	if !a.ValidOrder(orig, []string{"acl2", "acl1", "writer", "reader"}) {
		t.Error("promoting independent ACLs should be valid")
	}
	// Reversing writer and reader violates RAW.
	if a.ValidOrder(orig, []string{"reader", "writer", "acl1", "acl2"}) {
		t.Error("reader before writer must be invalid")
	}
	// Wrong length or wrong members.
	if a.ValidOrder(orig, []string{"writer", "reader", "acl1"}) {
		t.Error("length mismatch must be invalid")
	}
	if a.ValidOrder(orig, []string{"writer", "reader", "acl1", "ghost"}) {
		t.Error("unknown member must be invalid")
	}
}

func TestCanMerge(t *testing.T) {
	a := NewAnalyzer(prog(t))
	if a.CanMerge([]string{"writer", "reader"}) {
		t.Error("cannot merge when earlier table writes later table's key")
	}
	if !a.CanMerge([]string{"acl1", "acl2"}) {
		// acl1 drops and is not last — actually that should block merging.
		t.Log("acl1 drops mid-span")
	}
	// A dropping table mid-span blocks the merge...
	if a.CanMerge([]string{"acl1", "acl2"}) {
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
	a2 := NewAnalyzer(p2)
	if !a2.CanMerge([]string{"plain", "acl"}) {
		t.Error("merge with final dropping table should be legal")
	}
	if a2.CanMerge([]string{"plain"}) {
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
	a := NewAnalyzer(p)
	if a.CanMerge([]string{"sw", "t2"}) {
		t.Error("switch-case table must not merge")
	}
	if a.CanCache([]string{"sw", "t2"}) {
		t.Error("switch-case table must not be cached")
	}
}

func TestCanCache(t *testing.T) {
	a := NewAnalyzer(prog(t))
	if a.CanCache([]string{"writer", "reader"}) {
		t.Error("span where writer modifies reader's key cannot be cached")
	}
	if !a.CanCache([]string{"acl1", "acl2"}) {
		t.Error("independent ACLs should be cacheable (drop verdict cached)")
	}
	if !a.CanCache([]string{"reader", "acl1"}) {
		t.Error("reader+acl1 do not interfere; should be cacheable")
	}
	if a.CanCache(nil) {
		t.Error("empty span cannot be cached")
	}
}

func TestCacheKeyUnion(t *testing.T) {
	a := NewAnalyzer(prog(t))
	key := a.CacheKey([]string{"acl1", "acl2"})
	if len(key) != 2 || key[0] != "ipv4.srcAddr" || key[1] != "tcp.dport" {
		t.Errorf("CacheKey = %v", key)
	}
}

func TestFieldSetIntersects(t *testing.T) {
	a := FieldSet{"x": true, "y": true}
	b := FieldSet{"y": true, "z": true}
	c := FieldSet{"w": true}
	if !a.Intersects(b) || b.Intersects(c) || a.Intersects(FieldSet{}) {
		t.Error("Intersects misbehaves")
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
	a := NewAnalyzer(p)
	for _, c := range []struct {
		earlier, later string
		want           DependencyKind
	}{{"setx", "route", DepRAW}, {"route", "port_acl", DepRAW}, {"route", "repin", DepWAW}} {
		if got := a.Dependency(c.earlier, c.later); got != c.want {
			t.Errorf("%s -> %s: %v, want %v", c.earlier, c.later, got, c.want)
		}
	}
}
