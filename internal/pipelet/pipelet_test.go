package pipelet

import (
	"fmt"
	"sort"
	"testing"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/profile"
	"pipeleon/internal/profile/profiletest"
)

func tbl(name, next string) p4ir.TableSpec {
	return p4ir.TableSpec{
		Name:    name,
		Keys:    []p4ir.Key{{Field: "ipv4.dstAddr", Kind: p4ir.MatchExact}},
		Actions: []*p4ir.Action{p4ir.NoopAction("n")},
		Next:    next,
	}
}

// figure8 builds the shape of Figure 8: a conditional splitting into two
// chains that rejoin at a switch-case table, followed by two arms that
// rejoin at a final table.
//
//	   c0
//	  /  \
//	a1    b1
//	a2    b2
//	  \  /
//	   sw       (switch-case)
//	  /  \
//	x1    y1
//	  \  /
//	   z1
func figure8(t *testing.T) *p4ir.Program {
	t.Helper()
	return p4ir.NewBuilder("fig8").
		Cond("c0", "meta.dir == 0", "a1", "b1", "meta.dir").
		Table(tbl("a1", "a2")).
		Table(tbl("a2", "sw")).
		Table(tbl("b1", "b2")).
		Table(tbl("b2", "sw")).
		Table(p4ir.TableSpec{
			Name:    "sw",
			Keys:    []p4ir.Key{{Field: "tcp.dport", Kind: p4ir.MatchExact}},
			Actions: []*p4ir.Action{p4ir.NoopAction("go_x"), p4ir.NoopAction("go_y")},
			ActionNext: map[string]string{
				"go_x": "x1", "go_y": "y1",
			},
		}).
		Table(tbl("x1", "z1")).
		Table(tbl("y1", "z1")).
		Table(tbl("z1", "")).
		Root("c0").
		MustBuild()
}

func TestFormFigure8(t *testing.T) {
	part, err := Form(figure8(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Expected pipelets: [a1 a2], [b1 b2], [sw], [x1], [y1], [z1].
	if len(part.Pipelets) != 6 {
		t.Fatalf("got %d pipelets, want 6: %v", len(part.Pipelets), part.Pipelets)
	}
	byHead := map[string]*Pipelet{}
	for _, p := range part.Pipelets {
		byHead[p.Head()] = p
	}
	if p := byHead["a1"]; p == nil || p.Len() != 2 || p.Tail() != "a2" || p.ExitNext != "sw" {
		t.Errorf("pipelet a = %v", p)
	}
	if p := byHead["b1"]; p == nil || p.Len() != 2 || p.ExitNext != "sw" {
		t.Errorf("pipelet b = %v", p)
	}
	if p := byHead["sw"]; p == nil || !p.SwitchCase || p.Len() != 1 {
		t.Errorf("switch-case pipelet = %v", p)
	}
	if p := byHead["x1"]; p == nil || p.Len() != 1 || p.ExitNext != "z1" {
		t.Errorf("pipelet x = %v", p)
	}
	if p := byHead["z1"]; p == nil || p.Len() != 1 || p.ExitNext != "" {
		t.Errorf("pipelet z = %v (join node must start fresh)", p)
	}
	// Every table assigned exactly once.
	seen := map[string]bool{}
	for _, p := range part.Pipelets {
		for _, tb := range p.Tables {
			if seen[tb] {
				t.Errorf("table %s in two pipelets", tb)
			}
			seen[tb] = true
		}
	}
	if len(seen) != 8 {
		t.Errorf("assigned %d tables, want 8", len(seen))
	}
}

func TestLongPipeletSplitting(t *testing.T) {
	var specs []p4ir.TableSpec
	for i := 0; i < 10; i++ {
		specs = append(specs, tbl(fmt.Sprintf("t%d", i), ""))
	}
	prog, err := p4ir.ChainTables("long", specs)
	if err != nil {
		t.Fatal(err)
	}
	part, err := Form(prog, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(part.Pipelets) != 3 {
		t.Fatalf("10 tables with maxLen 4: got %d pipelets, want 3 (4+4+2)", len(part.Pipelets))
	}
	if part.Pipelets[0].Len() != 4 || part.Pipelets[1].Len() != 4 || part.Pipelets[2].Len() != 2 {
		t.Errorf("split lengths: %d %d %d", part.Pipelets[0].Len(), part.Pipelets[1].Len(), part.Pipelets[2].Len())
	}
	// Continuity preserved.
	if part.Pipelets[0].ExitNext != "t4" || part.Pipelets[1].ExitNext != "t8" {
		t.Errorf("exits: %q %q", part.Pipelets[0].ExitNext, part.Pipelets[1].ExitNext)
	}
}

func TestOfLookup(t *testing.T) {
	part, err := Form(figure8(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	if p := part.Of("a2"); p == nil || p.Head() != "a1" {
		t.Errorf("Of(a2) = %v", p)
	}
	if part.Of("nope") != nil {
		t.Error("Of(unknown) should be nil")
	}
}

func TestRankByCostAndTopK(t *testing.T) {
	prog := figure8(t)
	part, err := Form(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	col := profile.NewCollector()
	rec := profiletest.NewRecorder(col)
	// 90% of traffic goes to the a-branch.
	for i := 0; i < 90; i++ {
		rec.Branch("c0", true)
	}
	for i := 0; i < 10; i++ {
		rec.Branch("c0", false)
	}
	// Switch-case sends everything to x.
	for i := 0; i < 100; i++ {
		rec.Action("sw", "go_x")
	}
	prof := col.Snapshot()
	pm := costmodel.Params{Lmat: 10, Lact: 2, BranchFactor: 0.1}
	costs := rankByCost(prog, prof, pm, part)
	if len(costs) != 6 {
		t.Fatalf("got %d costs", len(costs))
	}
	// Hottest must be the 2-table pipelet carrying 90% ([a1 a2]).
	if costs[0].Pipelet.Head() != "a1" {
		t.Errorf("hottest pipelet = %v, want a-branch", costs[0].Pipelet)
	}
	// b-branch (10%) must rank below single full-traffic tables.
	var bCost, zCost float64
	for _, c := range costs {
		switch c.Pipelet.Head() {
		case "b1":
			bCost = c.Weighted
		case "z1":
			zCost = c.Weighted
		}
	}
	if bCost >= zCost {
		t.Errorf("b-branch (10%% traffic, 2 tables) should cost less than z (100%%, 1 table): %v vs %v", bCost, zCost)
	}

	top := TopK(costs, 0.3)
	if len(top) != 2 {
		t.Errorf("top-30%% of 6 pipelets = %d, want 2", len(top))
	}
	if got := TopK(costs, 1.0); len(got) != 6 {
		t.Errorf("top-100%% = %d, want all 6", len(got))
	}
	if got := TopK(costs, 0.0001); len(got) != 1 {
		t.Errorf("tiny frac should still pick 1, got %d", len(got))
	}
}

func TestTrafficDistributionSumsToOne(t *testing.T) {
	prog := figure8(t)
	part, _ := Form(prog, 0)
	col := profile.NewCollector()
	rec := profiletest.NewRecorder(col)
	for i := 0; i < 60; i++ {
		rec.Branch("c0", true)
	}
	for i := 0; i < 40; i++ {
		rec.Branch("c0", false)
	}
	for i := 0; i < 100; i++ {
		rec.Action("sw", "go_x")
	}
	dist := TrafficDistribution(prog, col.Snapshot(), part)
	var sum float64
	for _, d := range dist {
		sum += d
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("distribution sums to %v", sum)
	}
}

func TestFindGroups(t *testing.T) {
	prog := figure8(t)
	part, _ := Form(prog, 0)
	all := part.Pipelets
	groups := FindGroups(prog, part, all)
	// c0's successors a1,b1 head selected pipelets, both exit to sw → one
	// group; sw's successors x1,y1 both exit to z1 → another; and because
	// the first group's exit IS the second group's branch, the two chain
	// into a single larger group (Figure 8's ①②③④).
	if len(groups) != 1 {
		t.Fatalf("got %d groups: %+v", len(groups), groups)
	}
	g := groups[0]
	// The final join pipelet (z1) is absorbed too, so the group covers
	// everything after c0 and exits at the sink.
	if g.Branch != "c0" || g.Exit != "" {
		t.Errorf("chained group = %+v", g)
	}
	if len(g.Members) != 5 {
		t.Errorf("chained group members = %v", g.Members)
	}
	if len(g.Branches) != 2 {
		t.Errorf("chained group branches = %v", g.Branches)
	}
	if tables := g.Tables(); len(tables) != 7 {
		t.Errorf("group tables = %v", tables)
	}
	// If only one arm is selected, no group forms.
	var partial []*Pipelet
	for _, p := range all {
		if p.Head() != "b1" {
			partial = append(partial, p)
		}
	}
	for _, g := range FindGroups(prog, part, partial) {
		if g.Branch == "c0" {
			t.Error("group must not form when a member is unselected")
		}
	}
}

func TestFormSingleTable(t *testing.T) {
	prog, err := p4ir.ChainTables("one", []p4ir.TableSpec{tbl("only", "")})
	if err != nil {
		t.Fatal(err)
	}
	part, err := Form(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(part.Pipelets) != 1 || part.Pipelets[0].Len() != 1 {
		t.Errorf("partition = %v", part.Pipelets)
	}
}

func TestFormEmptyProgram(t *testing.T) {
	part, err := Form(p4ir.NewProgram("empty"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(part.Pipelets) != 0 {
		t.Errorf("empty program should have no pipelets")
	}
}

// rankByCost computes every pipelet's weighted cost under the profile and
// returns them sorted descending: the ranking from first principles.
func rankByCost(prog *p4ir.Program, prof *profile.Profile, pm costmodel.Params, part *Partition) []Cost {
	reach := prof.ReachProbs(prog)
	k := pm.Kernel()
	costs := make([]Cost, 0, len(part.Pipelets))
	for _, p := range part.Pipelets {
		var w float64
		for _, tbl := range p.Tables {
			w += reach[tbl] * k.NodeLatency(prog, prof, tbl)
		}
		costs = append(costs, Cost{Pipelet: p, Weighted: w})
	}
	sort.SliceStable(costs, func(i, j int) bool { return costs[i].Weighted > costs[j].Weighted })
	return costs
}
