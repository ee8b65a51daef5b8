package opt

import (
	"testing"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/profile"
	"pipeleon/internal/synth"
)

// interlaced builds U1 S1 S2 U2 S3 S4 U3 — unsupported tables interlaced
// with pairs of supported ones (the Appendix A.2 benchmark shape).
func interlaced(t *testing.T) *p4ir.Program {
	t.Helper()
	var specs []p4ir.TableSpec
	mk := func(name string, unsupported bool) p4ir.TableSpec {
		return p4ir.TableSpec{
			Name:        name,
			Keys:        []p4ir.Key{{Field: "ipv4.dstAddr", Kind: p4ir.MatchExact, Width: 32}},
			Actions:     []*p4ir.Action{p4ir.NoopAction("n")},
			Unsupported: unsupported,
		}
	}
	specs = append(specs,
		mk("u1", true), mk("s1", false), mk("s2", false),
		mk("u2", true), mk("s3", false), mk("s4", false),
		mk("u3", true),
	)
	prog, err := p4ir.ChainTables("hetero", specs)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func heteroParams() costmodel.Params {
	pm := costmodel.EmulatedNIC()
	pm.MigrationLatency = 400
	return pm
}

// estimate is a test helper that fails on estimator errors.
func estimate(t *testing.T, prog *p4ir.Program, prof *profile.Profile, pm costmodel.Params, pl Placement) float64 {
	t.Helper()
	lat, err := EstimateHeteroLatency(prog, prof, pm, pl)
	if err != nil {
		t.Fatal(err)
	}
	return lat
}

func TestEstimateHeteroLatencyCountsMigrations(t *testing.T) {
	prog := interlaced(t)
	prof := profile.New()
	pm := heteroParams()
	base := NewPlacement(prog, pm)
	lat := estimate(t, prog, prof, pm, base)
	// Sanity: homogeneous version (nothing in software) is much cheaper.
	none := Placement{Tier: map[string]costmodel.TierID{}, Copies: map[string]bool{}}
	progAll := prog.Clone()
	for _, tbl := range progAll.Tables {
		tbl.Unsupported = false
	}
	latNone := estimate(t, progAll, prof, pm, none)
	if lat <= latNone {
		t.Errorf("heterogeneous latency %v should exceed homogeneous %v", lat, latNone)
	}
	// Copying both supported tables between u1 and u2 removes 2
	// migrations.
	copied := clonePlacement(base)
	copied.Copies["s1"] = true
	copied.Copies["s2"] = true
	latCopied := estimate(t, prog, prof, pm, copied)
	if latCopied >= lat {
		t.Errorf("copying the s1,s2 pair should help: %v >= %v", latCopied, lat)
	}
}

func TestEstimateHeteroLatencyReportsTopoError(t *testing.T) {
	// A cycle makes TopoOrder fail; the estimator must surface that
	// instead of pricing the program at zero.
	prog := interlaced(t)
	prog.Tables["u3"].BaseNext = "u1"
	if _, err := EstimateHeteroLatency(prog, profile.New(), heteroParams(), NewPlacement(prog, heteroParams())); err == nil {
		t.Fatal("cyclic program must return an error, not 0 latency")
	}
}

func TestSingleCopyInPairDoesNotHelp(t *testing.T) {
	// Appendix A.2: "copying only one table in this case does not reduce
	// the latency ... it does not reduce the needed migration and
	// performing the copied table on CPU cores is slower."
	prog := interlaced(t)
	prof := profile.New()
	pm := heteroParams()
	base := NewPlacement(prog, pm)
	lat := estimate(t, prog, prof, pm, base)
	one := clonePlacement(base)
	one.Copies["s1"] = true
	latOne := estimate(t, prog, prof, pm, one)
	if latOne < lat {
		t.Errorf("single mid-pair copy should not help: %v < %v", latOne, lat)
	}
}

func TestGreedyCopyPlanAvoidsBadCopies(t *testing.T) {
	prog := interlaced(t)
	prof := profile.New()
	pm := heteroParams()
	base := NewPlacement(prog, pm)
	// Greedy is one-step: since no single copy helps in the pair-shaped
	// program, it must stop without copying anything (it never makes
	// latency worse).
	plan, err := GreedyPlacementPlan(prog, prof, pm, base, 4)
	if err != nil {
		t.Fatal(err)
	}
	latBase := estimate(t, prog, prof, pm, base)
	latPlan := estimate(t, prog, prof, pm, plan)
	if latPlan > latBase+1e-9 {
		t.Errorf("greedy plan made things worse: %v > %v", latPlan, latBase)
	}
}

func TestGreedyCopyPlanTakesProfitableCopies(t *testing.T) {
	// Alternating single supported tables: u1 s1 u2 s2 u3 — copying s1
	// or s2 individually removes two migrations each.
	var specs []p4ir.TableSpec
	mk := func(name string, unsupported bool) p4ir.TableSpec {
		return p4ir.TableSpec{
			Name:        name,
			Keys:        []p4ir.Key{{Field: "ipv4.dstAddr", Kind: p4ir.MatchExact, Width: 32}},
			Actions:     []*p4ir.Action{p4ir.NoopAction("n")},
			Unsupported: unsupported,
		}
	}
	specs = append(specs, mk("u1", true), mk("s1", false), mk("u2", true), mk("s2", false), mk("u3", true))
	prog, err := p4ir.ChainTables("alt", specs)
	if err != nil {
		t.Fatal(err)
	}
	prof := profile.New()
	pm := heteroParams()
	base := NewPlacement(prog, pm)
	plan, err := GreedyPlacementPlan(prog, prof, pm, base, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Copies["s1"] || !plan.Copies["s2"] {
		t.Errorf("greedy should copy both singletons: %v", plan.Copies)
	}
	if estimate(t, prog, prof, pm, plan) >= estimate(t, prog, prof, pm, base) {
		t.Error("plan should strictly improve latency")
	}
}

// offPathParams configures a three-tier target where the off-path tier
// runs software faster than the NIC CPU (the off-path DPU premise) but
// costs a DMA crossing to reach.
func offPathParams() costmodel.Params {
	pm := heteroParams()
	pm.OffPathSlowdown = 1.5 // faster than the NIC CPU's 5x
	pm.DMABaseNs = 3000
	pm.DMAPerPacketNs = 60
	pm.DMABatch = 32
	return pm
}

func TestStickyTableIsNeverCopied(t *testing.T) {
	var specs []p4ir.TableSpec
	mk := func(name string, unsupported, sticky bool) p4ir.TableSpec {
		return p4ir.TableSpec{
			Name:        name,
			Keys:        []p4ir.Key{{Field: "ipv4.dstAddr", Kind: p4ir.MatchExact, Width: 32}},
			Actions:     []*p4ir.Action{p4ir.NoopAction("n")},
			Unsupported: unsupported,
			Sticky:      sticky,
		}
	}
	specs = []p4ir.TableSpec{
		mk("u1", true, false), mk("s1", false, true), mk("u2", true, false),
	}
	prog, err := p4ir.ChainTables("sticky", specs)
	if err != nil {
		t.Fatal(err)
	}
	pm := heteroParams()
	plan, err := GreedyPlacementPlan(prog, profile.New(), pm, NewPlacement(prog, pm), 4)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Copies["s1"] {
		t.Fatal("sticky table must never be replicated")
	}
}

func TestGreedyPlacementPlanOffloadsWholeStage(t *testing.T) {
	// u1 u2 u3 form a contiguous software stage between supported
	// endpoints. On a three-tier target whose off-path cores are much
	// faster than the NIC CPU and whose DMA is cheap, the PnO-style
	// whole-stage offload should land the run off-path.
	prog := interlaced(t)
	prof := profile.New()
	pm := offPathParams()
	pm.CPUSlowdown = 8 // make the on-path CPU painful
	base := NewPlacement(prog, pm)
	plan, err := GreedyPlacementPlan(prog, prof, pm, base, 8)
	if err != nil {
		t.Fatal(err)
	}
	latBase := estimate(t, prog, prof, pm, base)
	latPlan := estimate(t, prog, prof, pm, plan)
	if latPlan >= latBase {
		t.Fatalf("three-way plan should improve latency: %v >= %v", latPlan, latBase)
	}
	moved := 0
	for _, d := range plan.Tier {
		if d >= 2 {
			moved++
		}
	}
	if moved == 0 {
		t.Fatalf("expected at least one table moved off-path, plan %v", plan.Tier)
	}
}

func TestGreedyPlacementPlanRespectsTierFloor(t *testing.T) {
	prog := interlaced(t)
	prog.Tables["u2"].MinTier = 2 // must stay off-path
	prof := profile.New()
	pm := offPathParams()
	base := NewPlacement(prog, pm)
	if got := placedTier(base, prog.Tables["u2"], pm.NumTiers()); got != 2 {
		t.Fatalf("baseline tier of floor-2 table = %d, want 2", got)
	}
	plan, err := GreedyPlacementPlan(prog, prof, pm, base, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := placedTier(plan, prog.Tables["u2"], pm.NumTiers()); got != 2 {
		t.Fatalf("plan dropped a floor-2 table to tier %d", got)
	}
	// On a two-tier target the floor clamps to the top tier.
	two := heteroParams()
	if got := placedTier(NewPlacement(prog, two), prog.Tables["u2"], two.NumTiers()); got != 1 {
		t.Fatalf("clamped tier = %d, want 1", got)
	}
}

// BenchmarkHeteroEstimate prices one placement of the root
// BenchmarkPlacementPlan input (the shared synth search workload with every
// third table floored off the ASIC, BlueField2's three tiers; the placement
// is the greedy plan): oneshot builds the cost view per call, as
// EstimateHeteroLatency must; held prices against a view built once — the
// per-trial cost of the placement search.
func BenchmarkHeteroEstimate(b *testing.B) {
	prog := synth.Program(synth.ProgramSpec{Pipelets: 12, AvgLen: 2.5, Category: synth.Mixed, Seed: 4242})
	pm := costmodel.BlueField2()
	nth := 0
	for _, name := range prog.NodeNames() {
		if t, _ := prog.Node(name); t != nil {
			if nth%3 == 1 {
				t.MinTier = 1
			}
			nth++
		}
	}
	prof := synth.SynthesizeProfile(prog, synth.ProfileSpec{Seed: 7, Category: synth.Mixed})
	pl, err := GreedyPlacementPlan(prog, prof, pm, NewPlacement(prog, pm), 8)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("oneshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := EstimateHeteroLatency(prog, prof, pm, pl); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("held", func(b *testing.B) {
		b.ReportAllocs()
		view := NewEvaluator(prog, prof, pm, Config{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := view.HeteroLatency(pl); err != nil {
				b.Fatal(err)
			}
		}
	})
}
