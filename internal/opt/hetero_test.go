package opt

import (
	"math"
	"testing"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/nicsim"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/profile"
	"pipeleon/internal/synth"
	"pipeleon/internal/trafficgen"
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
	ev := NewEvaluator(prog, prof, pm, Config{})
	if got := ev.placedTier(base, prog.Tables["u2"]); got != 2 {
		t.Fatalf("baseline tier of floor-2 table = %d, want 2", got)
	}
	plan, err := GreedyPlacementPlan(prog, prof, pm, base, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := ev.placedTier(plan, prog.Tables["u2"]); got != 2 {
		t.Fatalf("plan dropped a floor-2 table to tier %d", got)
	}
	// On a two-tier target the floor clamps to the top tier.
	two := heteroParams()
	if got := NewEvaluator(prog, prof, two, Config{}).placedTier(NewPlacement(prog, two), prog.Tables["u2"]); got != 1 {
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

// TestModelMatchesEmulatorOnTiers holds the tier-aware estimate to the
// emulator on programs whose every node has one arrival tier: a table
// floored to the NIC CPU, a conditional behind it, a copied table, and a
// table on the off-path tier of a three-tier target. The profile is the
// emulator's own, and noise, per-packet overhead and entry churn are off, so
// what is left is the arithmetic of the two, which share one kernel: the
// model must integrate exactly what the emulator charged. (Before they
// shared it, a conditional reached on the NIC CPU cost the emulator
// CPUSlowdown times what the model charged.)
func TestModelMatchesEmulatorOnTiers(t *testing.T) {
	table := func(name string, minTier int, next string) p4ir.TableSpec {
		key := p4ir.Key{Field: "ipv4.dstAddr", Kind: p4ir.MatchExact, Width: 32}
		return p4ir.TableSpec{
			Name: name, Keys: []p4ir.Key{key}, Next: next, MinTier: minTier,
			Actions: []*p4ir.Action{
				p4ir.NewAction("work", p4ir.Prim("modify_field", "meta."+name, "1"), p4ir.Prim("modify_field", "meta."+name+"_b", "2")),
				p4ir.NewAction("pass", p4ir.Prim("modify_field", "meta."+name+"_m", "1")),
			},
			DefaultAction: "pass",
			Entries:       []p4ir.Entry{{Match: []p4ir.MatchValue{{Value: 7}}, Action: "work"}},
		}
	}
	// u (floored to tier 1) -> c (always true) -> k -> a: k is copied in
	// the "copy" cases, placed on tier 2 in the "offpath" ones.
	build := func() *p4ir.Program {
		return p4ir.NewBuilder("tiers").
			Table(table("u", 1, "c")).
			Cond("c", "true", "k", "").
			Table(table("k", 0, "a")).
			Table(table("a", 0, "")).
			Root("u").MustBuild()
	}
	flows := trafficgen.UniformFlows(5, 40)
	flows[0].Dst = 7 // one flow hits every table's entry
	cases := []struct {
		name string
		pm   costmodel.Params
		pl   Placement
	}{
		{"emulated/floor", costmodel.EmulatedNIC(), Placement{}},
		{"emulated/copy", costmodel.EmulatedNIC(), Placement{Copies: map[string]bool{"k": true}}},
		{"bluefield2/floor", costmodel.BlueField2(), Placement{}},
		{"bluefield2/copy", costmodel.BlueField2(), Placement{Copies: map[string]bool{"k": true}}},
		{"bluefield2/offpath", costmodel.BlueField2(), Placement{Tier: map[string]costmodel.TierID{"k": 2}}},
		{"agiliocx/offpath", costmodel.AgilioCX(), Placement{Tier: map[string]costmodel.TierID{"k": 2, "a": 1}}},
	}
	for _, c := range cases {
		gen := trafficgen.New(9, 0)
		gen.AddFlows(flows...)
		pkts := gen.Batch(1500)
		clones := make([]*packet.Packet, len(pkts))
		for i, p := range pkts {
			clones[i] = p.Clone()
		}
		col := profile.NewCollector()
		if measureTiered(t, build(), c.pm, c.pl, col, clones).MeanLatencyNs <= 0 {
			t.Fatalf("%s: instrumented run measured nothing", c.name)
		}
		got := measureTiered(t, build(), c.pm, c.pl, nil, pkts).MeanLatencyNs
		want, err := EstimateHeteroLatency(build(), col.Snapshot(), c.pm, c.pl)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(want-got) > 1e-9*got {
			t.Errorf("%s: model %.6f ns, emulator %.6f ns (off by %.6f)", c.name, want, got, want-got)
		}
	}
}

// measureTiered runs pkts through an emulator with the placement applied by
// configuration, instrumented into col when col is not nil.
func measureTiered(t *testing.T, prog *p4ir.Program, pm costmodel.Params, pl Placement, col *profile.Collector, pkts []*packet.Packet) nicsim.Measurement {
	t.Helper()
	tiers := map[string]int{}
	for name, d := range pl.Tier {
		tiers[name] = int(d)
	}
	nic, err := nicsim.New(prog, nicsim.Config{
		Params: pm, TierTables: tiers, CopiedTables: pl.Copies, Collector: col, Instrument: col != nil,
	})
	if err != nil {
		t.Fatal(err)
	}
	return nic.Measure(pkts)
}

// TestPlacementCopyCostsTheTablesFootprint: a table copied onto every tier
// costs the knapsack the memory the table occupies, Table.MemoryBytes — for
// an LPM table over five prefix lengths that is five hash tables of entries,
// not the emulated NIC's pinned latency m of 3, and an empty table occupies
// its one-entry minimum.
func TestPlacementCopyCostsTheTablesFootprint(t *testing.T) {
	var prefixes []p4ir.Entry
	for i, plen := range []int{8, 12, 16, 24, 32} {
		prefixes = append(prefixes, p4ir.Entry{Match: []p4ir.MatchValue{{Value: uint64(i+1) << 24, PrefixLen: plen}}, Action: "n"})
	}
	mk := func(name string, floor int, kind p4ir.MatchKind, entries []p4ir.Entry) p4ir.TableSpec {
		return p4ir.TableSpec{
			Name: name, MinTier: floor, Entries: entries,
			Keys:    []p4ir.Key{{Field: "ipv4.dstAddr", Kind: kind, Width: 32}},
			Actions: []*p4ir.Action{p4ir.NoopAction("n")},
		}
	}
	prog, err := p4ir.ChainTables("footprint", []p4ir.TableSpec{
		mk("u1", 1, p4ir.MatchExact, nil), mk("lpm", 0, p4ir.MatchLPM, prefixes),
		mk("u2", 1, p4ir.MatchExact, nil), mk("empty", 0, p4ir.MatchExact, nil),
		mk("u3", 1, p4ir.MatchExact, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.EnablePlacement = true
	res, err := coldSession(t, prog, heteroParams(), cfg).Search(profile.New())
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range res.Units {
		if u.Name != "placement" {
			continue
		}
		o := u.Options[0]
		if !o.Placement.Copies["lpm"] || !o.Placement.Copies["empty"] {
			t.Fatalf("want both ASIC tables copied, got %v", o.Placement)
		}
		if want := prog.Tables["lpm"].MemoryBytes() + prog.Tables["empty"].MemoryBytes(); o.MemCost != want {
			t.Fatalf("copies cost %d bytes, the tables occupy %d", o.MemCost, want)
		}
		return
	}
	t.Fatal("no placement unit")
}
