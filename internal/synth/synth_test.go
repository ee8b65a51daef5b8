package synth

import (
	"math"
	"testing"

	"pipeleon/internal/p4ir"
	"pipeleon/internal/pipelet"
	"pipeleon/internal/profile"
	"pipeleon/internal/stats"
)

func TestProgramValidAndSized(t *testing.T) {
	for _, cat := range []Category{Mixed, HeavyDrop, SmallStatic, HighLocality} {
		for _, pn := range []int{1, 5, 12, 15} {
			prog := Program(ProgramSpec{Pipelets: pn, AvgLen: 2.5, Category: cat, Seed: uint64(pn) * 31})
			if err := prog.Validate(); err != nil {
				t.Fatalf("cat=%v pn=%d: invalid program: %v", cat, pn, err)
			}
			part, err := pipelet.Form(prog, 8)
			if err != nil {
				t.Fatalf("cat=%v pn=%d: %v", cat, pn, err)
			}
			got := len(part.Pipelets)
			if got < pn || got > pn+3 {
				t.Errorf("cat=%v pn=%d: formed %d pipelets", cat, pn, got)
			}
		}
	}
}

func TestProgramDeterministicPerSeed(t *testing.T) {
	a := Program(ProgramSpec{Pipelets: 8, AvgLen: 2, Seed: 99})
	b := Program(ProgramSpec{Pipelets: 8, AvgLen: 2, Seed: 99})
	ja, _ := a.MarshalJSON()
	jb, _ := b.MarshalJSON()
	if string(ja) != string(jb) {
		t.Error("same seed must synthesize identical programs")
	}
	c := Program(ProgramSpec{Pipelets: 8, AvgLen: 2, Seed: 100})
	jc, _ := c.MarshalJSON()
	if string(ja) == string(jc) {
		t.Error("different seeds should differ")
	}
}

func TestCategoryShapes(t *testing.T) {
	// SmallStatic: all exact tables, no drops, few entries.
	ss := Program(ProgramSpec{Pipelets: 10, AvgLen: 2, Category: SmallStatic, Seed: 1})
	for name, tbl := range ss.Tables {
		if tbl.WidestMatchKind() != p4ir.MatchExact {
			t.Errorf("SmallStatic table %s is %v", name, tbl.WidestMatchKind())
		}
		if tbl.HasDropAction() {
			t.Errorf("SmallStatic table %s drops", name)
		}
		if len(tbl.Entries) > 8 {
			t.Errorf("SmallStatic table %s has %d entries", name, len(tbl.Entries))
		}
	}
	// HeavyDrop: a healthy share of dropping tables.
	hd := Program(ProgramSpec{Pipelets: 12, AvgLen: 3, Category: HeavyDrop, Seed: 2})
	drops := 0
	for _, tbl := range hd.Tables {
		if tbl.HasDropAction() {
			drops++
		}
	}
	if drops == 0 {
		t.Error("HeavyDrop program has no dropping tables")
	}
	// HighLocality: complex match kinds present.
	hl := Program(ProgramSpec{Pipelets: 12, AvgLen: 3, Category: HighLocality, Seed: 3})
	complexCnt := 0
	for _, tbl := range hl.Tables {
		if tbl.WidestMatchKind() != p4ir.MatchExact {
			complexCnt++
		}
	}
	if complexCnt == 0 {
		t.Error("HighLocality program has no LPM/ternary tables")
	}
}

func TestSyntheticEntriesMatchDefaults(t *testing.T) {
	prog := Program(ProgramSpec{Pipelets: 10, AvgLen: 3, Category: HighLocality, Seed: 4, EntriesPerTable: 20})
	for name, tbl := range prog.Tables {
		if tbl.IsSwitchCase() {
			continue // separators carry no synthesized entries
		}
		switch tbl.WidestMatchKind() {
		case p4ir.MatchLPM:
			if m := tbl.MatchComplexity(); m != 3 {
				t.Errorf("LPM table %s m=%d, want 3 distinct prefixes", name, m)
			}
		case p4ir.MatchTernary:
			if m := tbl.MatchComplexity(); m != 5 {
				t.Errorf("ternary table %s m=%d, want 5 distinct masks", name, m)
			}
		}
		if len(tbl.Entries) != 20 {
			t.Errorf("table %s entries=%d, want 20", name, len(tbl.Entries))
		}
	}
}

func TestSynthesizeProfileConsistent(t *testing.T) {
	prog := Program(ProgramSpec{Pipelets: 9, AvgLen: 2, Category: Mixed, Seed: 5})
	prof := SynthesizeProfile(prog, ProfileSpec{Seed: 6, Category: Mixed})
	// Root-table total should be ~TotalPackets when root is a table, and
	// reach probabilities must stay within [0, 1+eps].
	reach := prof.ReachProbs(prog)
	for name, r := range reach {
		if r < -1e-9 || r > 1.0+1e-6 {
			t.Errorf("reach(%s) = %v out of range", name, r)
		}
	}
	if r := reach[prog.Root]; math.Abs(r-1) > 1e-9 {
		t.Errorf("reach(root) = %v", r)
	}
	// Profiles are deterministic per seed.
	prof2 := SynthesizeProfile(prog, ProfileSpec{Seed: 6, Category: Mixed})
	if prof.TableTotal(firstTable(prog)) != prof2.TableTotal(firstTable(prog)) {
		t.Error("profile synthesis not deterministic")
	}
}

func firstTable(p *p4ir.Program) string {
	order, _ := p.TopoOrder()
	for _, n := range order {
		if _, ok := p.Tables[n]; ok {
			return n
		}
	}
	return ""
}

func TestHeavyDropProfileDropsALot(t *testing.T) {
	prog := Program(ProgramSpec{Pipelets: 10, AvgLen: 2, Category: HeavyDrop, Seed: 8})
	prof := SynthesizeProfile(prog, ProfileSpec{Seed: 9, Category: HeavyDrop})
	found := false
	for name, tbl := range prog.Tables {
		if tbl.HasDropAction() && prof.TableTotal(name) > 0 {
			if dropProb(prof, tbl) > 0.3 {
				found = true
			}
		}
	}
	if !found {
		t.Error("HeavyDrop profile should include high drop rates")
	}
}

func TestProfileBatchEntropySpread(t *testing.T) {
	prog := Program(ProgramSpec{Pipelets: 12, AvgLen: 2, Category: Mixed, Seed: 10})
	profs, ents := ProfileBatch(prog, 1000, 50, Mixed, 8)
	if len(profs) != 50 || len(ents) != 50 {
		t.Fatal("batch size mismatch")
	}
	lo := stats.Percentile(ents, 10)
	hi := stats.Percentile(ents, 90)
	if !(lo < hi) {
		t.Errorf("entropy spread too small: p10=%v p90=%v", lo, hi)
	}
	pLow := PickEntropyPercentile(profs, ents, 10)
	pHigh := PickEntropyPercentile(profs, ents, 90)
	eLow := profileEntropy(prog, pLow, 8)
	eHigh := profileEntropy(prog, pHigh, 8)
	if eLow >= eHigh {
		t.Errorf("picked profiles not ordered by entropy: %v >= %v", eLow, eHigh)
	}
}

func TestFirstPipeletGetsAllTraffic(t *testing.T) {
	// Appendix A.3: "the first pipelet connecting to the program root
	// will always receive 100% of traffic."
	prog := Program(ProgramSpec{Pipelets: 10, AvgLen: 2, Category: Mixed, Seed: 11})
	prof := SynthesizeProfile(prog, ProfileSpec{Seed: 12})
	part, err := pipelet.Form(prog, 8)
	if err != nil {
		t.Fatal(err)
	}
	reach := prof.ReachProbs(prog)
	// The root node (table or cond) has reach 1.
	if math.Abs(reach[prog.Root]-1) > 1e-9 {
		t.Errorf("root reach = %v", reach[prog.Root])
	}
	_ = part
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
