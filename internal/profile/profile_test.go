package profile_test

import (
	"math"
	"testing"

	"pipeleon/internal/p4ir"
	"pipeleon/internal/profile"
	"pipeleon/internal/profile/profiletest"
)

func linearProg(t *testing.T) *p4ir.Program {
	t.Helper()
	prog, err := p4ir.ChainTables("lin", []p4ir.TableSpec{
		{Name: "acl", Keys: []p4ir.Key{{Field: "ipv4.srcAddr", Kind: p4ir.MatchExact}},
			Actions: []*p4ir.Action{p4ir.DropAction(), p4ir.NoopAction("allow")}},
		{Name: "route", Keys: []p4ir.Key{{Field: "ipv4.dstAddr", Kind: p4ir.MatchLPM}},
			Actions: []*p4ir.Action{p4ir.NewAction("fwd", p4ir.Prim("modify_field", "meta.egress_port", "1"))}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func branchProg(t *testing.T) *p4ir.Program {
	t.Helper()
	return p4ir.NewBuilder("br").
		Cond("c", "ipv4.isValid()", "A", "B").
		Table(p4ir.TableSpec{Name: "A", Actions: []*p4ir.Action{p4ir.NoopAction("n")}, Next: "C"}).
		Table(p4ir.TableSpec{Name: "B", Actions: []*p4ir.Action{p4ir.NoopAction("n")}, Next: "C"}).
		Table(p4ir.TableSpec{Name: "C", Actions: []*p4ir.Action{p4ir.NoopAction("n")}}).
		Root("c").
		MustBuild()
}

func TestActionProbAndDropProb(t *testing.T) {
	prog := linearProg(t)
	col := profile.NewCollector()
	rec := profiletest.NewRecorder(col)
	for i := 0; i < 30; i++ {
		rec.Action("acl", "drop_packet")
	}
	for i := 0; i < 70; i++ {
		rec.Action("acl", "allow")
	}
	p := col.Snapshot()
	probs := p.ActionProb(prog.Tables["acl"])
	if math.Abs(probs["drop_packet"]-0.3) > 1e-9 {
		t.Errorf("P(drop) = %v, want 0.3", probs["drop_packet"])
	}
	if math.Abs(dropProb(p, prog.Tables["acl"])-0.3) > 1e-9 {
		t.Errorf("drop share = %v, want 0.3", dropProb(p, prog.Tables["acl"]))
	}
}

// dropProb is the fraction of t's traffic that runs a dropping action.
func dropProb(prof *profile.Profile, t *p4ir.Table) float64 {
	probs := prof.ActionProb(t)
	var drop float64
	for _, a := range t.Actions {
		if a.Drops() {
			drop += probs[a.Name]
		}
	}
	return drop
}

func TestActionProbUniformFallback(t *testing.T) {
	prog := linearProg(t)
	p := profile.New()
	probs := p.ActionProb(prog.Tables["acl"])
	if math.Abs(probs["drop_packet"]-0.5) > 1e-9 || math.Abs(probs["allow"]-0.5) > 1e-9 {
		t.Errorf("uniform fallback = %v", probs)
	}
}

func TestBranchProb(t *testing.T) {
	col := profile.NewCollector()
	rec := profiletest.NewRecorder(col)
	for i := 0; i < 80; i++ {
		rec.Branch("c", true)
	}
	for i := 0; i < 20; i++ {
		rec.Branch("c", false)
	}
	p := col.Snapshot()
	if math.Abs(p.BranchProb("c")-0.8) > 1e-9 {
		t.Errorf("BranchProb = %v, want 0.8", p.BranchProb("c"))
	}
	if p.BranchProb("unknown") != 0.5 {
		t.Errorf("unknown branch should default to 0.5")
	}
}

func TestReachProbsLinearWithDrop(t *testing.T) {
	prog := linearProg(t)
	col := profile.NewCollector()
	rec := profiletest.NewRecorder(col)
	for i := 0; i < 40; i++ {
		rec.Action("acl", "drop_packet")
	}
	for i := 0; i < 60; i++ {
		rec.Action("acl", "allow")
	}
	reach := col.Snapshot().ReachProbs(prog)
	if math.Abs(reach["acl"]-1) > 1e-9 {
		t.Errorf("reach(acl) = %v, want 1", reach["acl"])
	}
	if math.Abs(reach["route"]-0.6) > 1e-9 {
		t.Errorf("reach(route) = %v, want 0.6 (40%% dropped)", reach["route"])
	}
}

func TestReachProbsBranches(t *testing.T) {
	prog := branchProg(t)
	col := profile.NewCollector()
	rec := profiletest.NewRecorder(col)
	for i := 0; i < 70; i++ {
		rec.Branch("c", true)
	}
	for i := 0; i < 30; i++ {
		rec.Branch("c", false)
	}
	reach := col.Snapshot().ReachProbs(prog)
	if math.Abs(reach["A"]-0.7) > 1e-9 || math.Abs(reach["B"]-0.3) > 1e-9 {
		t.Errorf("reach A=%v B=%v, want 0.7/0.3", reach["A"], reach["B"])
	}
	if math.Abs(reach["C"]-1.0) > 1e-9 {
		t.Errorf("reach(C) = %v, want 1 (paths rejoin)", reach["C"])
	}
}

func TestReachProbsSwitchCase(t *testing.T) {
	prog := p4ir.NewBuilder("sc").
		Table(p4ir.TableSpec{
			Name: "classify",
			Actions: []*p4ir.Action{
				p4ir.NoopAction("to_a"),
				p4ir.NoopAction("to_b"),
				p4ir.DropAction(),
			},
			ActionNext: map[string]string{"to_a": "A", "to_b": "B"},
		}).
		Table(p4ir.TableSpec{Name: "A", Actions: []*p4ir.Action{p4ir.NoopAction("n")}}).
		Table(p4ir.TableSpec{Name: "B", Actions: []*p4ir.Action{p4ir.NoopAction("n")}}).
		Root("classify").
		MustBuild()
	col := profile.NewCollector()
	rec := profiletest.NewRecorder(col)
	for i := 0; i < 50; i++ {
		rec.Action("classify", "to_a")
	}
	for i := 0; i < 30; i++ {
		rec.Action("classify", "to_b")
	}
	for i := 0; i < 20; i++ {
		rec.Action("classify", "drop_packet")
	}
	reach := col.Snapshot().ReachProbs(prog)
	if math.Abs(reach["A"]-0.5) > 1e-9 || math.Abs(reach["B"]-0.3) > 1e-9 {
		t.Errorf("reach A=%v B=%v, want 0.5/0.3", reach["A"], reach["B"])
	}
}

func TestSamplingScalesCounts(t *testing.T) {
	col := profile.NewCollector()
	col.SetSampling(4)
	layout := &profile.Layout{Actions: []profile.ActionSite{{Table: "t", Action: "a"}}}
	b := col.Bind(layout, 1)[0].NewBurst()
	recorded := 0
	for i := 0; i < 1000; i++ {
		if b.Sampled() {
			b.IncAction(0)
			recorded++
		}
	}
	b.Flush()
	if recorded != 250 {
		t.Errorf("recorded %d of 1000 with 1/4 sampling, want 250", recorded)
	}
	p := col.Snapshot()
	if got := p.TableTotal("t"); got != 1000 {
		t.Errorf("scaled total = %d, want 1000", got)
	}
	if math.Abs(p.SampleRate-0.25) > 1e-9 {
		t.Errorf("SampleRate = %v, want 0.25", p.SampleRate)
	}
}

func TestResetPreservesSampling(t *testing.T) {
	col := profile.NewCollector()
	rec := profiletest.NewRecorder(col)
	col.SetSampling(8)
	rec.Action("t", "a")
	col.Reset()
	p := col.Snapshot()
	if p.TableTotal("t") != 0 {
		t.Error("Reset should clear counters")
	}
	if math.Abs(p.SampleRate-0.125) > 1e-9 {
		t.Errorf("Reset lost sampling config: %v", p.SampleRate)
	}
}

func TestUpdateRates(t *testing.T) {
	p := profile.New()
	p.UpdateRates["lb"] = 1500
	if p.UpdateRate("lb") != 1500 {
		t.Errorf("UpdateRate = %v, want 1500", p.UpdateRate("lb"))
	}
	if p.UpdateRate("ghost") != 0 {
		t.Error("unknown table should have zero update rate")
	}
}

func TestCloneIndependence(t *testing.T) {
	col := profile.NewCollector()
	rec := profiletest.NewRecorder(col)
	rec.Action("t", "a")
	p1 := col.Snapshot()
	p2 := p1.Clone()
	p2.ActionCounts["t"]["a"] = 999
	if p1.ActionCounts["t"]["a"] != 1 {
		t.Error("Clone shares maps with original")
	}
}
