package opt

import (
	"testing"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/pipelet"
	"pipeleon/internal/profile"
	"pipeleon/internal/profile/profiletest"
)

func entry(action string, vals ...uint64) p4ir.Entry {
	e := p4ir.Entry{Action: action}
	for _, v := range vals {
		e.Match = append(e.Match, p4ir.MatchValue{Value: v})
	}
	return e
}

func TestApplyReorderRewiresChain(t *testing.T) {
	prog := mustChain(t,
		plainSpec("t1", "f.a", p4ir.MatchExact),
		plainSpec("t2", "f.b", p4ir.MatchExact),
		aclSpec("acl", "f.c"),
	)
	p := singlePipelet(t, prog)
	o := &Option{Kind: OptPipelet, Pipelet: p, Order: []string{"acl", "t1", "t2"}}
	rw, err := Apply(prog, []*Option{o}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := rw.Program
	if out.Root != "acl" {
		t.Errorf("root = %q, want acl", out.Root)
	}
	if out.Tables["acl"].BaseNext != "t1" || out.Tables["t1"].BaseNext != "t2" || out.Tables["t2"].BaseNext != "" {
		t.Errorf("chain miswired: acl->%q t1->%q t2->%q",
			out.Tables["acl"].BaseNext, out.Tables["t1"].BaseNext, out.Tables["t2"].BaseNext)
	}
	// Original untouched.
	if prog.Root != "t1" {
		t.Error("Apply mutated the input program")
	}
}

func TestApplyCacheInsertsCacheTable(t *testing.T) {
	prog := mustChain(t,
		plainSpec("t1", "f.a", p4ir.MatchTernary),
		plainSpec("t2", "f.b", p4ir.MatchTernary),
		plainSpec("t3", "f.c", p4ir.MatchExact),
	)
	p := singlePipelet(t, prog)
	o := &Option{Kind: OptPipelet, Pipelet: p, Order: []string{"t1", "t2", "t3"},
		Segments: []Segment{{Kind: SegCache, Start: 0, Len: 2}}}
	rw, err := Apply(prog, []*Option{o}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := rw.Program
	cacheName := p4ir.GeneratedName(p4ir.KindCache, []string{"t1", "t2"})
	ct, ok := out.Tables[cacheName]
	if !ok {
		t.Fatalf("cache table %q missing", cacheName)
	}
	if out.Root != cacheName {
		t.Errorf("root should be the cache, got %q", out.Root)
	}
	spec, ok := ct.CacheMeta()
	if !ok {
		t.Fatal("cache table lacks metadata")
	}
	if spec.HitNext != "t3" || spec.MissNext != "t1" {
		t.Errorf("spec hit=%q miss=%q, want t3/t1", spec.HitNext, spec.MissNext)
	}
	if ct.ActionNext["cache_hit"] != "t3" || ct.ActionNext["cache_miss"] != "t1" {
		t.Errorf("cache routing wrong: %v", ct.ActionNext)
	}
	if out.Tables["t1"].BaseNext != "t2" || out.Tables["t2"].BaseNext != "t3" {
		t.Error("miss path must traverse covered tables then rejoin")
	}
	// Cache key = union of covered key fields, exact.
	if len(ct.Keys) != 2 || ct.Keys[0].Kind != p4ir.MatchExact {
		t.Errorf("cache keys = %v", ct.Keys)
	}
	if rw.Map.Caches[cacheName] == nil {
		t.Error("counter map missing cache link")
	}
	if err := out.Validate(); err != nil {
		t.Errorf("optimized program invalid: %v", err)
	}
}

func TestApplyMergedCacheCrossProduct(t *testing.T) {
	prog := mustChain(t,
		p4ir.TableSpec{Name: "A",
			Keys:    []p4ir.Key{{Field: "ipv4.srcAddr", Kind: p4ir.MatchExact}},
			Actions: []*p4ir.Action{p4ir.NewAction("a1", p4ir.Prim("modify_field", "meta.a", "1")), p4ir.NoopAction("a2")},
			Entries: []p4ir.Entry{entry("a1", 10), entry("a1", 11)},
		},
		p4ir.TableSpec{Name: "B",
			Keys:    []p4ir.Key{{Field: "ipv4.dstAddr", Kind: p4ir.MatchExact}},
			Actions: []*p4ir.Action{p4ir.NewAction("b1", p4ir.Prim("modify_field", "meta.b", "1")), p4ir.NoopAction("b2")},
			Entries: []p4ir.Entry{entry("b1", 20), entry("b1", 21), entry("b1", 22)},
		},
	)
	p := singlePipelet(t, prog)
	o := &Option{Kind: OptPipelet, Pipelet: p, Order: []string{"A", "B"},
		Segments: []Segment{{Kind: SegMerge, Start: 0, Len: 2}}}
	rw, err := Apply(prog, []*Option{o}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := rw.Program
	name := p4ir.GeneratedName(p4ir.KindMergedCache, []string{"A", "B"})
	mt, ok := out.Tables[name]
	if !ok {
		t.Fatalf("merged cache missing; tables: %v", out.NodeNames())
	}
	// 2 x 3 all-hit combos.
	if len(mt.Entries) != 6 {
		t.Errorf("merged cache has %d entries, want 6 (2x3 cross product)", len(mt.Entries))
	}
	if len(mt.Keys) != 2 {
		t.Errorf("merged cache keys = %v", mt.Keys)
	}
	// Originals retained as fallback.
	if _, ok := out.Tables["A"]; !ok {
		t.Error("original table A must remain as miss fallback")
	}
	spec, ok := mt.CacheMeta()
	if !ok || !spec.Prepopulated {
		t.Errorf("merged cache spec = %+v", spec)
	}
	if spec.MissNext != "A" {
		t.Errorf("miss must fall back to A, got %q", spec.MissNext)
	}
	// Combined action credited to both originals.
	origins := rw.Map.MergedActions[name]
	if len(origins) == 0 {
		t.Fatal("no merged action origins recorded")
	}
	found := false
	for act, om := range origins {
		if om["A"] == "a1" && om["B"] == "b1" {
			found = true
			if mt.Action(act) == nil {
				t.Errorf("combined action %q not on table", act)
			}
		}
	}
	if !found {
		t.Error("missing a1+b1 combined action origin")
	}
	if err := out.Validate(); err != nil {
		t.Errorf("invalid: %v", err)
	}
}

func TestApplyInPlaceTernaryMergeFigure6(t *testing.T) {
	// Figure 6: merging two exact tables as a ternary table requires
	// wildcard entries for hit/miss combinations. We force the in-place
	// path by using LPM+ternary members.
	prog := mustChain(t,
		p4ir.TableSpec{Name: "A",
			Keys:    []p4ir.Key{{Field: "ipv4.srcAddr", Kind: p4ir.MatchLPM, Width: 32}},
			Actions: []*p4ir.Action{p4ir.NewAction("a1", p4ir.Prim("modify_field", "meta.a", "1")), p4ir.NoopAction("a2")},
			Entries: []p4ir.Entry{{Match: []p4ir.MatchValue{{Value: 0x0a000000, PrefixLen: 8}}, Action: "a1"}},
		},
		p4ir.TableSpec{Name: "B",
			Keys:    []p4ir.Key{{Field: "ipv4.dstAddr", Kind: p4ir.MatchTernary, Width: 32}},
			Actions: []*p4ir.Action{p4ir.NewAction("b1", p4ir.Prim("modify_field", "meta.b", "1")), p4ir.NoopAction("b2")},
			Entries: []p4ir.Entry{{Match: []p4ir.MatchValue{{Value: 0x01010000, Mask: 0xffff0000}}, Action: "b1"}},
		},
	)
	p := singlePipelet(t, prog)
	o := &Option{Kind: OptPipelet, Pipelet: p, Order: []string{"A", "B"},
		Segments: []Segment{{Kind: SegMerge, Start: 0, Len: 2}}}
	rw, err := Apply(prog, []*Option{o}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := rw.Program
	name := p4ir.GeneratedName(p4ir.KindMerged, []string{"A", "B"})
	mt, ok := out.Tables[name]
	if !ok {
		t.Fatalf("merged table missing; got %v", out.NodeNames())
	}
	// Originals removed.
	if _, still := out.Tables["A"]; still {
		t.Error("in-place merge must remove original A")
	}
	if !rw.Map.Removed["A"] || !rw.Map.Removed["B"] {
		t.Error("Removed set not updated")
	}
	// Entries: (a1,b1) prio 2, (a1,*) prio 1, (*,b1) prio 1; (*,*) is the
	// default action, not an entry — Figure 6 lists it with priority 0.
	if len(mt.Entries) != 3 {
		t.Fatalf("merged entries = %d, want 3: %+v", len(mt.Entries), mt.Entries)
	}
	prios := map[int]int{}
	for _, e := range mt.Entries {
		prios[e.Priority]++
	}
	if prios[2] != 1 || prios[1] != 2 {
		t.Errorf("priorities = %v, want {2:1, 1:2}", prios)
	}
	// Both-hit entry: masks are prefix mask and the ternary mask.
	for _, e := range mt.Entries {
		if e.Priority == 2 {
			if e.Match[0].Mask != 0xff000000 {
				t.Errorf("LPM /8 should become mask 0xff000000, got %#x", e.Match[0].Mask)
			}
			if e.Match[1].Mask != 0xffff0000 {
				t.Errorf("ternary mask should carry over, got %#x", e.Match[1].Mask)
			}
		}
	}
	if mt.DefaultAction == "" || mt.Action(mt.DefaultAction) == nil {
		t.Error("merged table needs a default combined action")
	}
	if err := out.Validate(); err != nil {
		t.Errorf("invalid: %v", err)
	}
}

func TestApplyGroupCache(t *testing.T) {
	prog := p4ir.NewBuilder("g").
		Cond("c", "meta.dir == 1", "a1", "b1", "meta.dir").
		Table(plainSpec("a1", "f.a", p4ir.MatchTernary)).
		Table(plainSpec("b1", "f.b", p4ir.MatchTernary)).
		Table(plainSpec("z", "f.z", p4ir.MatchExact)).
		Root("c").
		MustBuild()
	prog.Tables["a1"].BaseNext = "z"
	prog.Tables["b1"].BaseNext = "z"
	part, err := pipelet.Form(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	groups := pipelet.FindGroups(prog, part, part.Pipelets)
	if len(groups) != 1 {
		t.Fatalf("groups = %d, want 1", len(groups))
	}
	g := groups[0]
	o := &Option{Kind: OptGroupCache, Group: &g, Gain: 1}
	rw, err := Apply(prog, []*Option{o}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := rw.Program
	cacheName := p4ir.GeneratedName(p4ir.KindCache, g.Tables())
	ct, ok := out.Tables[cacheName]
	if !ok {
		t.Fatalf("group cache missing: %v", out.NodeNames())
	}
	if out.Root != cacheName {
		t.Errorf("root = %q, want the group cache", out.Root)
	}
	if ct.ActionNext["cache_hit"] != "z" || ct.ActionNext["cache_miss"] != "c" {
		t.Errorf("group cache routing: %v", ct.ActionNext)
	}
	// Branch read fields included in the key.
	foundDir := false
	for _, k := range ct.Keys {
		if k.Field == "meta.dir" {
			foundDir = true
		}
	}
	if !foundDir {
		t.Error("branch read field missing from group cache key")
	}
	if err := out.Validate(); err != nil {
		t.Errorf("invalid: %v", err)
	}
}

func TestCounterMapTranslateCacheHits(t *testing.T) {
	prog := mustChain(t,
		plainSpec("t1", "f.a", p4ir.MatchExact),
		plainSpec("t2", "f.b", p4ir.MatchExact),
	)
	cm := NewCounterMap()
	cm.Caches["__cache__t1__t2"] = []string{"t1", "t2"}
	optProf := profile.New()
	optProf.CacheHits["__cache__t1__t2"] = 900
	optProf.ActionCounts["t1"] = map[string]uint64{"set": 100} // miss path
	optProf.ActionCounts["t2"] = map[string]uint64{"set": 100}
	orig := cm.Translate(optProf, prog)
	if got := orig.TableTotal("t1"); got != 1000 {
		t.Errorf("t1 total = %d, want 1000 (100 direct + 900 cached)", got)
	}
	if got := orig.TableTotal("t2"); got != 1000 {
		t.Errorf("t2 total = %d, want 1000", got)
	}
}

func TestCounterMapTranslateNoMissTraffic(t *testing.T) {
	prog := mustChain(t, aclSpec("acl", "f.a"))
	cm := NewCounterMap()
	cm.Caches["__cache__acl"] = []string{"acl"}
	optProf := profile.New()
	optProf.CacheHits["__cache__acl"] = 500
	orig := cm.Translate(optProf, prog)
	// With no miss-path observations, hits credit the default action.
	def := prog.Tables["acl"].DefaultAction
	if got := orig.ActionCounts["acl"][def]; got != 500 {
		t.Errorf("default action credited %d, want 500", got)
	}
}

// The integer remainder of a cache's distributed hits lands on a fixed
// action: one hit over a table whose actions a and b counted one each gives
// the same translation every time, not whichever action a map range visits
// last.
func TestCounterMapTranslateIsDeterministic(t *testing.T) {
	prog := mustChain(t, p4ir.TableSpec{Name: "T",
		Actions: []*p4ir.Action{p4ir.NoopAction("a"), p4ir.NoopAction("b")}})
	cm := NewCounterMap()
	cm.Caches["__cache__T"] = []string{"T"}
	optProf := profile.New()
	optProf.CacheHits["__cache__T"] = 1
	optProf.ActionCounts["T"] = map[string]uint64{"a": 1, "b": 1}
	seen := map[uint64]bool{}
	for i := 0; i < 64; i++ {
		counts := cm.Translate(optProf, prog).ActionCounts["T"]
		if counts["a"]+counts["b"] != 3 {
			t.Fatalf("translation %d: %v, want 3 packets", i, counts)
		}
		seen[counts["a"]] = true
	}
	if len(seen) != 1 {
		t.Errorf("a's count took %d values over 64 translations of one input", len(seen))
	}
}

func TestCounterMapTranslateMergedActions(t *testing.T) {
	prog := mustChain(t,
		p4ir.TableSpec{Name: "A",
			Actions: []*p4ir.Action{p4ir.NoopAction("a1"), p4ir.NoopAction("a2")}},
		p4ir.TableSpec{Name: "B",
			Actions: []*p4ir.Action{p4ir.NoopAction("b1"), p4ir.NoopAction("b2")}},
	)
	cm := NewCounterMap()
	cm.MergedActions["__merged__A__B"] = map[string]map[string]string{
		"a1·b2": {"A": "a1", "B": "b2"},
	}
	cm.Removed["A"] = true
	cm.Removed["B"] = true
	optProf := profile.New()
	optProf.ActionCounts["__merged__A__B"] = map[string]uint64{"a1·b2": 77}
	orig := cm.Translate(optProf, prog)
	if orig.ActionCounts["A"]["a1"] != 77 || orig.ActionCounts["B"]["b2"] != 77 {
		t.Errorf("merged action translation failed: %+v", orig.ActionCounts)
	}
}

func TestSearchAndApplyEndToEnd(t *testing.T) {
	// A realistic small program: two regular tables then two ACLs, with a
	// hot dropping ACL at the end — Search should reorder and the result
	// must have lower modeled latency.
	prog := mustChain(t,
		plainSpec("t1", "f.a", p4ir.MatchExact),
		plainSpec("t2", "f.b", p4ir.MatchExact),
		aclSpec("acl1", "f.c"),
		aclSpec("acl2", "f.d"),
	)
	col := profile.NewCollector()
	rec := profiletest.NewRecorder(col)
	for _, tb := range []string{"t1", "t2"} {
		for i := 0; i < 100; i++ {
			rec.Action(tb, "set")
		}
	}
	recordDrops(rec, "acl1", 5)
	recordDrops(rec, "acl2", 80)
	prof := col.Snapshot()
	pm := costmodel.BlueField2()
	cfg := DefaultConfig()
	cfg.TopKFrac = 1
	res, rw, err := coldSession(t, prog, pm, cfg).SearchAndApply(prof)
	if err != nil {
		t.Fatal(err)
	}
	if rw == nil {
		t.Fatal("expected a rewrite")
	}
	if res.Gain <= 0 {
		t.Errorf("gain = %v", res.Gain)
	}
	before := costmodel.ExpectedLatency(prog, prof, pm)
	// Evaluate the optimized program under the translated-back profile
	// semantics: counters for moved tables carry over by name.
	after := costmodel.ExpectedLatency(rw.Program, prof, pm)
	if after >= before {
		t.Errorf("optimized program not faster by the model: %v >= %v", after, before)
	}
	if err := rw.Program.Validate(); err != nil {
		t.Errorf("invalid optimized program: %v", err)
	}
}

func TestApplyIsIdempotentOnInput(t *testing.T) {
	prog := mustChain(t,
		plainSpec("t1", "f.a", p4ir.MatchTernary),
		plainSpec("t2", "f.b", p4ir.MatchExact),
	)
	p := singlePipelet(t, prog)
	before, _ := prog.MarshalJSON()
	o := &Option{Kind: OptPipelet, Pipelet: p, Order: []string{"t1", "t2"},
		Segments: []Segment{{Kind: SegCache, Start: 0, Len: 2}}}
	if _, err := Apply(prog, []*Option{o}, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	after, _ := prog.MarshalJSON()
	if string(before) != string(after) {
		t.Error("Apply must not mutate its input program")
	}
}
