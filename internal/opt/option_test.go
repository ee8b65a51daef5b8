package opt

import (
	"fmt"
	"strings"
	"testing"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/pipelet"
	"pipeleon/internal/profile"
	"pipeleon/internal/profile/profiletest"
)

// aclSpec builds an independent ACL-style table (drop + allow) keyed on a
// unique field.
func aclSpec(name, field string) p4ir.TableSpec {
	return p4ir.TableSpec{
		Name:    name,
		Keys:    []p4ir.Key{{Field: field, Kind: p4ir.MatchExact}},
		Actions: []*p4ir.Action{p4ir.DropAction(), p4ir.NoopAction("allow")},
	}
}

func plainSpec(name, field string, kind p4ir.MatchKind) p4ir.TableSpec {
	return p4ir.TableSpec{
		Name:    name,
		Keys:    []p4ir.Key{{Field: field, Kind: kind}},
		Actions: []*p4ir.Action{p4ir.NewAction("set", p4ir.Prim("modify_field", "meta."+name, "1"))},
	}
}

func mustChain(t *testing.T, specs ...p4ir.TableSpec) *p4ir.Program {
	t.Helper()
	prog, err := p4ir.ChainTables("test", specs)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func recordDrops(rec *profiletest.Recorder, table string, dropPct int) {
	for i := 0; i < dropPct; i++ {
		rec.Action(table, "drop_packet")
	}
	for i := dropPct; i < 100; i++ {
		rec.Action(table, "allow")
	}
}

func singlePipelet(t *testing.T, prog *p4ir.Program) *pipelet.Pipelet {
	t.Helper()
	part, err := pipelet.Form(prog, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(part.Pipelets) != 1 {
		t.Fatalf("want a single pipelet, got %d", len(part.Pipelets))
	}
	return part.Pipelets[0]
}

func TestEnumerateOrdersRespectsDeps(t *testing.T) {
	prog := mustChain(t,
		p4ir.TableSpec{Name: "w",
			Keys:    []p4ir.Key{{Field: "ipv4.dstAddr", Kind: p4ir.MatchExact}},
			Actions: []*p4ir.Action{p4ir.NewAction("set", p4ir.Prim("modify_field", "meta.x", "1"))}},
		p4ir.TableSpec{Name: "r",
			Keys:    []p4ir.Key{{Field: "meta.x", Kind: p4ir.MatchExact}},
			Actions: []*p4ir.Action{p4ir.NoopAction("n")}},
		aclSpec("acl", "tcp.dport"),
	)
	orders, _ := enumerateOrders(view(prog), []string{"w", "r", "acl"}, 1000)
	// w must always precede r.
	for _, o := range orders {
		wi, ri := -1, -1
		for i, n := range o {
			if n == "w" {
				wi = i
			}
			if n == "r" {
				ri = i
			}
		}
		if wi > ri {
			t.Errorf("invalid order enumerated: %v", o)
		}
	}
	// Valid orders of {w<r, acl free}: acl in 3 positions → 3 orders.
	if len(orders) != 3 {
		t.Errorf("got %d orders, want 3: %v", len(orders), orders)
	}
}

// view returns a default evaluator of prog: its analyzer and node IDs are
// what enumerateOrders and orderDeps read.
func view(prog *p4ir.Program) *Evaluator {
	return NewEvaluator(prog, profile.New(), costmodel.BlueField2(), DefaultConfig())
}

// GreedyDropOrder is greedyDropOrder by table name.
func GreedyDropOrder(ev *Evaluator, tables []string, dropRate map[string]float64) []string {
	var out []string
	for _, i := range greedyDropOrder(orderDeps(ev, tables), func(i int) float64 { return dropRate[tables[i]] }) {
		out = append(out, tables[i])
	}
	return out
}

func TestGreedyDropOrder(t *testing.T) {
	prog := mustChain(t, aclSpec("a", "f.a"), aclSpec("b", "f.b"), aclSpec("c", "f.c"))
	drops := map[string]float64{"a": 0.1, "b": 0.9, "c": 0.5}
	order := GreedyDropOrder(view(prog), []string{"a", "b", "c"}, drops)
	if strings.Join(order, ",") != "b,c,a" {
		t.Errorf("GreedyDropOrder = %v, want [b c a]", order)
	}
}

func TestGreedyDropOrderRespectsDependency(t *testing.T) {
	prog := mustChain(t,
		p4ir.TableSpec{Name: "w",
			Actions: []*p4ir.Action{p4ir.NewAction("set", p4ir.Prim("modify_field", "meta.x", "1"))}},
		p4ir.TableSpec{Name: "r",
			Keys:    []p4ir.Key{{Field: "meta.x", Kind: p4ir.MatchExact}},
			Actions: []*p4ir.Action{p4ir.DropAction(), p4ir.NoopAction("allow")}},
	)
	// r drops a lot but depends on w; greedy must keep w first.
	order := GreedyDropOrder(view(prog), []string{"w", "r"}, map[string]float64{"w": 0, "r": 0.99})
	if order[0] != "w" {
		t.Errorf("dependency violated: %v", order)
	}
}

// segmentationsOf collects every segmentation the skeleton holds for one
// table order of prog.
func segmentationsOf(prog *p4ir.Program, cfg Config, order []string, limit int) [][]Segment {
	ev := NewEvaluator(prog, profile.New(), costmodel.BlueField2(), cfg)
	ev.caps.segmentations = limit
	sh := newOrderSkel(ev, order, new([]*shape)).shape
	out := make([][]Segment, len(sh.ends)-1)
	for c := range out {
		out[c] = sh.segments(c)
	}
	return out
}

func TestEnumerateSegmentationsCounts(t *testing.T) {
	prog := mustChain(t, plainSpec("t1", "f.a", p4ir.MatchExact), plainSpec("t2", "f.b", p4ir.MatchExact))
	cfg := DefaultConfig()
	segs := segmentationsOf(prog, cfg, []string{"t1", "t2"}, maxSegmentations)
	// Paper §4.2: two tables yield cache candidates [A],[B],[A][B],[A,B]
	// and one merge candidate [A,B]. With "nothing" that is:
	// {}, C[A], C[B], C[A]C[B], C[AB], M[AB], C[A]M? no (overlap),
	// plus mixed: C[A] then nothing on B, etc. Enumerate:
	// pos0 choices: none, C len1, C len2, M len2.
	//  none -> pos1: none, C[B] => 2
	//  C[A] -> pos1: none, C[B] => 2
	//  C[AB] => 1 ; M[AB] => 1. Total 6.
	if len(segs) != 6 {
		for _, s := range segs {
			t.Logf("seg: %+v", s)
		}
		t.Errorf("got %d segmentations, want 6", len(segs))
	}
}

func TestLocalOptimizePrefersDropPromotion(t *testing.T) {
	// 4 independent tables; last one drops 75%.
	prog := mustChain(t,
		plainSpec("t1", "f.a", p4ir.MatchExact),
		plainSpec("t2", "f.b", p4ir.MatchExact),
		plainSpec("t3", "f.c", p4ir.MatchExact),
		aclSpec("acl", "f.d"),
	)
	col := profile.NewCollector()
	rec := profiletest.New(col)
	recordDrops(rec, "acl", 75)
	for _, tb := range []string{"t1", "t2", "t3"} {
		for i := 0; i < 100; i++ {
			rec.Action(tb, "set")
		}
	}
	cfg := DefaultConfig()
	cfg.EnableCache = false
	cfg.EnableMerge = false
	ev := NewEvaluator(prog, col.Snapshot(), costmodel.BlueField2(), cfg)
	p := singlePipelet(t, prog)
	opts := ev.LocalOptimize(p)
	if len(opts) == 0 {
		t.Fatal("no options found")
	}
	best := opts[0]
	if best.Order[0] != "acl" {
		t.Errorf("best option should promote the ACL first: %v", best)
	}
	if best.MemCost != 0 || best.UpdateCost != 0 {
		t.Errorf("pure reorder must be free: mem=%d upd=%v", best.MemCost, best.UpdateCost)
	}
	if best.Gain <= 0 {
		t.Errorf("gain = %v, want > 0", best.Gain)
	}
}

func TestLocalOptimizeCachingComplexTables(t *testing.T) {
	// Ternary tables are expensive; caching them should win.
	prog := mustChain(t,
		plainSpec("t1", "f.a", p4ir.MatchTernary),
		plainSpec("t2", "f.b", p4ir.MatchTernary),
	)
	col := profile.NewCollector()
	rec := profiletest.New(col)
	for _, tb := range []string{"t1", "t2"} {
		for i := 0; i < 100; i++ {
			rec.Action(tb, "set")
		}
		// Few distinct keys: cacheable working set.
		for k := uint64(0); k < 10; k++ {
			rec.Key(tb, k)
		}
	}
	cfg := DefaultConfig()
	cfg.EnableReorder = false
	cfg.EnableMerge = false
	ev := NewEvaluator(prog, col.Snapshot(), costmodel.BlueField2(), cfg)
	opts := ev.LocalOptimize(singlePipelet(t, prog))
	if len(opts) == 0 {
		t.Fatal("no caching options found")
	}
	best := opts[0]
	if len(best.Segments) == 0 || best.Segments[0].Kind != SegCache {
		t.Fatalf("best option should cache: %v", best)
	}
	// One cache over both tables beats two caches (one probe vs two).
	if best.Segments[0].Len != 2 {
		t.Errorf("best cache should cover both tables: %v", best)
	}
	if best.MemCost <= 0 {
		t.Error("cache must cost memory")
	}
	if best.UpdateCost <= 0 {
		t.Error("cache must reserve insertion bandwidth")
	}
}

func TestCrossProductPenalizesWideCaches(t *testing.T) {
	// With huge per-table cardinality, a combined cache's working set
	// explodes; per-table caches should win.
	prog := mustChain(t,
		plainSpec("t1", "f.a", p4ir.MatchTernary),
		plainSpec("t2", "f.b", p4ir.MatchTernary),
	)
	col := profile.NewCollector()
	rec := profiletest.New(col)
	for _, tb := range []string{"t1", "t2"} {
		for i := 0; i < 100; i++ {
			rec.Action(tb, "set")
		}
		for k := uint64(0); k < 3000; k++ {
			rec.Key(tb, k)
		}
	}
	cfg := DefaultConfig()
	cfg.CacheBudgetEntries = 4096
	cfg.EnableReorder = false
	cfg.EnableMerge = false
	prof := col.Snapshot()
	ev := NewEvaluator(prog, prof, costmodel.BlueField2(), cfg)
	p := singlePipelet(t, prog)
	opts := ev.LocalOptimize(p)
	if len(opts) == 0 {
		t.Fatal("no options")
	}
	// Find gains of [t1][t2] (two caches) vs [t1,t2] (one cache).
	var twoCaches, oneCache float64
	for _, o := range opts {
		if len(o.Segments) == 2 {
			twoCaches = o.Gain
		}
		if len(o.Segments) == 1 && o.Segments[0].Len == 2 {
			oneCache = o.Gain
		}
	}
	// Working set 3000*3000 = 9e6 >> 4096, so the combined cache's hit
	// rate collapses while per-table caches (3000 < 4096) stay near max.
	if twoCaches <= oneCache {
		t.Errorf("per-table caches should beat one cross-product cache: %v vs %v", twoCaches, oneCache)
	}
}

func TestMergeExactTablesProducesMergedCacheGain(t *testing.T) {
	prog := mustChain(t,
		plainSpec("t1", "f.a", p4ir.MatchExact),
		plainSpec("t2", "f.b", p4ir.MatchExact),
	)
	col := profile.NewCollector()
	rec := profiletest.New(col)
	for _, tb := range []string{"t1", "t2"} {
		for i := 0; i < 100; i++ {
			rec.Action(tb, "set")
		}
	}
	cfg := DefaultConfig()
	cfg.EnableReorder = false
	cfg.EnableCache = false
	ev := NewEvaluator(prog, col.Snapshot(), costmodel.BlueField2(), cfg)
	opts := ev.LocalOptimize(singlePipelet(t, prog))
	if len(opts) == 0 {
		t.Fatal("no merge options")
	}
	if opts[0].Segments[0].Kind != SegMerge {
		t.Fatalf("expected merge, got %v", opts[0])
	}
	if opts[0].Gain <= 0 {
		t.Error("merging two exact tables should gain")
	}
}

func TestMergingTernaryTablesLoses(t *testing.T) {
	// In-place ternary merge multiplies m (5*5=25 > 5+5) — negative gain,
	// so no merge candidate should survive (Figure 6's hazard).
	prog := mustChain(t,
		plainSpec("t1", "f.a", p4ir.MatchTernary),
		plainSpec("t2", "f.b", p4ir.MatchTernary),
	)
	col := profile.NewCollector()
	rec := profiletest.New(col)
	for _, tb := range []string{"t1", "t2"} {
		for i := 0; i < 100; i++ {
			rec.Action(tb, "set")
		}
	}
	cfg := DefaultConfig()
	cfg.EnableReorder = false
	cfg.EnableCache = false
	ev := NewEvaluator(prog, col.Snapshot(), costmodel.BlueField2(), cfg)
	opts := ev.LocalOptimize(singlePipelet(t, prog))
	for _, o := range opts {
		for _, s := range o.Segments {
			if s.Kind == SegMerge {
				t.Errorf("ternary merge should not be profitable: %v (gain %v)", o, o.Gain)
			}
		}
	}
}

func TestMergeCapRespected(t *testing.T) {
	prog := mustChain(t,
		plainSpec("t1", "f.a", p4ir.MatchExact),
		plainSpec("t2", "f.b", p4ir.MatchExact),
		plainSpec("t3", "f.c", p4ir.MatchExact),
	)
	cfg := DefaultConfig()
	cfg.MergeCap = 2
	cfg.EnableCache = false
	segs := segmentationsOf(prog, cfg, []string{"t1", "t2", "t3"}, maxSegmentations)
	for _, ss := range segs {
		for _, s := range ss {
			if s.Kind == SegMerge && s.Len > 2 {
				t.Errorf("merge cap violated: %+v", s)
			}
		}
	}
	cfg.MergeCap = 3
	segs = segmentationsOf(prog, cfg, []string{"t1", "t2", "t3"}, maxSegmentations)
	found3 := false
	for _, ss := range segs {
		for _, s := range ss {
			if s.Kind == SegMerge && s.Len == 3 {
				found3 = true
			}
		}
	}
	if !found3 {
		t.Error("raising MergeCap should allow 3-way merges")
	}
}

func TestSwitchCasePipeletHasNoOptions(t *testing.T) {
	prog := p4ir.NewBuilder("sc").
		Table(p4ir.TableSpec{Name: "sw",
			Actions:    []*p4ir.Action{p4ir.NoopAction("x"), p4ir.NoopAction("y")},
			ActionNext: map[string]string{"x": "a", "y": "a"}}).
		Table(p4ir.TableSpec{Name: "a", Actions: []*p4ir.Action{p4ir.NoopAction("n")}}).
		Root("sw").MustBuild()
	part, err := pipelet.Form(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(prog, profile.New(), costmodel.BlueField2(), DefaultConfig())
	for _, p := range part.Pipelets {
		if p.SwitchCase {
			if opts := ev.LocalOptimize(p); opts != nil {
				t.Errorf("switch-case pipelet got options: %v", opts)
			}
		}
	}
}

func TestHitEstimateShape(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheBudgetEntries = 100
	small := cfg.hitEstimateNoOverride(50)
	big := cfg.hitEstimateNoOverride(100000)
	if small != estimatedHitRate {
		t.Errorf("fitting working set should use default rate, got %v", small)
	}
	if big >= small {
		t.Errorf("oversized working set must reduce the estimate: %v", big)
	}
	prog := mustChain(t, plainSpec("c", "f.a", p4ir.MatchExact), plainSpec("d", "f.b", p4ir.MatchExact))
	cfg.HitRateOverride = map[string]float64{"c": 0.42}
	ev := NewEvaluator(prog, profile.New(), costmodel.BlueField2(), cfg)
	if got := ev.hitEstimate("c", []int32{ev.ix.ID("c")}); got != 0.42 {
		t.Errorf("override ignored: %v", got)
	}
	d := []int32{ev.ix.ID("d")}
	if got, want := ev.hitEstimate("d", d), cfg.hitEstimateNoOverride(ev.workingSetIdx(d)); got != want {
		t.Errorf("span without an override should fall through to the model: %v, want %v", got, want)
	}
}

func TestOptionStringStable(t *testing.T) {
	prog := mustChain(t, plainSpec("t1", "f.a", p4ir.MatchExact), plainSpec("t2", "f.b", p4ir.MatchExact))
	part, _ := pipelet.Form(prog, 0)
	o := &Option{Kind: OptPipelet, Pipelet: part.Pipelets[0],
		Order:    []string{"t2", "t1"},
		Segments: []Segment{{Kind: SegCache, Start: 0, Len: 2}}}
	want := "order[t2 t1] cache[t2 t1]"
	if got := o.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestLocalOptimizeManyTablesFallsBackToGreedy(t *testing.T) {
	var specs []p4ir.TableSpec
	for i := 0; i < 9; i++ {
		specs = append(specs, aclSpec(fmt.Sprintf("a%d", i), fmt.Sprintf("f.x%d", i)))
	}
	prog := mustChain(t, specs...)
	col := profile.NewCollector()
	rec := profiletest.New(col)
	for i := 0; i < 9; i++ {
		recordDrops(rec, fmt.Sprintf("a%d", i), i*10)
	}
	cfg := DefaultConfig()
	cfg.MaxPipeletLen = 9
	cfg.EnableCache = false
	cfg.EnableMerge = false
	part, err := pipelet.Form(prog, cfg.MaxPipeletLen)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(prog, col.Snapshot(), costmodel.BlueField2(), cfg)
	opts := ev.LocalOptimize(part.Pipelets[0])
	if len(opts) == 0 {
		t.Fatal("greedy fallback should still produce a reorder option")
	}
	if opts[0].Order[0] != "a8" {
		t.Errorf("greedy should put highest-drop table first: %v", opts[0].Order)
	}
}
