package opt

import (
	"testing"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/profile"
	"pipeleon/internal/profile/profiletest"
	"pipeleon/internal/trafficgen"
)

func tierParams() costmodel.Params {
	pm := costmodel.AgilioCX()
	pm.SRAMFactor = 0.4
	pm.SRAMBytes = 4 << 10
	return pm
}

func tierProgram(t *testing.T) *p4ir.Program {
	t.Helper()
	prog, err := p4ir.ChainTables("tiers", []p4ir.TableSpec{
		plainSpec("hot", "ipv4.dstAddr", p4ir.MatchTernary),
		plainSpec("warm", "ipv4.srcAddr", p4ir.MatchExact),
		aclSpec("gate", "tcp.dport"),
		plainSpec("cold", "tcp.sport", p4ir.MatchTernary),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Entries so tables have non-zero footprints; ternary entries with
	// one mask keep m small but real.
	for _, name := range []string{"hot", "warm", "cold"} {
		tbl := prog.Tables[name]
		for i := 0; i < 8; i++ {
			mv := p4ir.MatchValue{Value: uint64(i)}
			if tbl.WidestMatchKind() == p4ir.MatchTernary {
				mv.Mask = 0xffffffff
			}
			tbl.Entries = append(tbl.Entries, p4ir.Entry{Priority: 1, Match: []p4ir.MatchValue{mv}, Action: "set"})
		}
	}
	return prog
}

func TestPlanMemoryTiersPrefersHotTraffic(t *testing.T) {
	prog := tierProgram(t)
	// gate drops 80%: "cold" sees 20% of traffic, the rest see 100%.
	col := profile.NewCollector()
	rec := profiletest.NewRecorder(col)
	recordDrops(rec, "gate", 80)
	for _, tb := range []string{"hot", "warm", "cold"} {
		for i := 0; i < 100; i++ {
			rec.Action(tb, "set")
		}
	}
	pm := tierParams()
	pm.SRAMBytes = 600 // fits ~1-2 tables
	plan := PlanMemoryTiers(prog, col.Snapshot(), pm)
	if len(plan.Promote) == 0 {
		t.Fatal("expected promotions")
	}
	// "cold" (20% reach) must not be promoted ahead of full-reach tables.
	for i, name := range plan.Promote {
		if name == "cold" && i == 0 {
			t.Errorf("cold table promoted first: %v", plan.Promote)
		}
	}
	if plan.Bytes > pm.SRAMBytes {
		t.Errorf("plan uses %d bytes, budget %d", plan.Bytes, pm.SRAMBytes)
	}
	if plan.GainNs <= 0 {
		t.Error("plan should claim a gain")
	}
}

func TestPlanMemoryTiersDisabled(t *testing.T) {
	prog := tierProgram(t)
	pm := costmodel.AgilioCX() // SRAMFactor 0 → feature off
	plan := PlanMemoryTiers(prog, profile.New(), pm)
	if len(plan.Promote) != 0 {
		t.Errorf("tiering disabled but plan promotes %v", plan.Promote)
	}
}

func TestApplyMemoryTiersSpeedsUpEmulation(t *testing.T) {
	prog := tierProgram(t)
	prof := profile.New()
	pm := tierParams()
	plan := PlanMemoryTiers(prog, prof, pm)
	if len(plan.Promote) == 0 {
		t.Fatal("no promotions")
	}
	tiered := ApplyMemoryTiers(prog, plan)
	// Original untouched.
	for _, tb := range prog.Tables {
		if tb.MemTier() == p4ir.TierSRAM {
			t.Fatal("ApplyMemoryTiers mutated its input")
		}
	}
	gen := trafficgen.New(1, 0)
	gen.AddFlows(trafficgen.UniformFlows(2, 100)...)
	mo := testNIC(t, prog, pm).Measure(gen.Batch(2000))
	mt := testNIC(t, tiered, pm).Measure(gen.Batch(2000))
	if mt.MeanLatencyNs >= mo.MeanLatencyNs {
		t.Errorf("SRAM-pinned layout not faster: %v >= %v", mt.MeanLatencyNs, mo.MeanLatencyNs)
	}
	// The model agrees.
	lo := costmodel.ExpectedLatency(prog, prof, pm)
	lt := costmodel.ExpectedLatency(tiered, prof, pm)
	if lt >= lo {
		t.Errorf("model: tiered %v >= original %v", lt, lo)
	}
}

func TestMemoryTierAnnotationRoundTrips(t *testing.T) {
	prog := tierProgram(t)
	prog.Tables["hot"].SetMemTier(p4ir.TierSRAM)
	data, err := prog.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back := &p4ir.Program{}
	if err := back.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if back.Tables["hot"].MemTier() != p4ir.TierSRAM {
		t.Error("tier annotation lost in JSON round trip")
	}
	if back.Tables["warm"].MemTier() != p4ir.TierEMEM {
		t.Error("unpinned table should default to EMEM")
	}
}
