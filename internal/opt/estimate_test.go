package opt

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/pipelet"
	"pipeleon/internal/profile"
	"pipeleon/internal/synth"
)

// The cost view's contracts. The Evaluator is the optimizer's only reading
// of (program, profile, cost model), so each integral over it is pinned to
// the reference definition it replaced a private copy of — bit for bit,
// over the session corpus (conditionals, switch-case tables, drops).

var presets = []func() costmodel.Params{costmodel.BlueField2, costmodel.AgilioCX, costmodel.EmulatedNIC}

// viewCase is the i-th corpus program with its profile.
func viewCase(i int) (*p4ir.Program, *profile.Profile) {
	pspec, profSpec, _ := sessionCase(i)
	prog := synth.Program(pspec)
	return prog, synth.SynthesizeProfile(prog, profSpec)
}

func sortedTables(prog *p4ir.Program) []string {
	names := make([]string, 0, len(prog.Tables))
	for name := range prog.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Property: the view's baseline is costmodel.ExpectedLatency and its
// ranking is pipelet.RankByCost, to the last bit, with and without every
// table pinned to a faster memory tier. The pinned half fails without
// Params.MatchLatency: the evaluator used to price a match as m·Lmat,
// dropping the SRAM factor TableLatency applies (281.9 ns against 131.9 ns
// on the first program under BlueField2).
func TestViewMatchesExpectedLatency(t *testing.T) {
	for i := 0; i < sessionSeeds; i++ {
		for _, pinned := range []bool{false, true} {
			prog, prof := viewCase(i)
			if pinned {
				for _, tb := range prog.Tables {
					tb.SetMemTier(p4ir.TierSRAM)
				}
			}
			part, err := pipelet.Form(prog, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, preset := range presets {
				pm := preset()
				pm.SRAMFactor = 0.4
				ev := NewEvaluator(prog, prof, pm, DefaultConfig())
				label := fmt.Sprintf("seed %d pinned=%v %s", i, pinned, pm.Name)
				want, got := costmodel.ExpectedLatency(prog, prof, pm), ev.baseline()
				if math.Float64bits(want) != math.Float64bits(got) {
					t.Fatalf("%s: view baseline %v != ExpectedLatency %v", label, got, want)
				}
				wantRank, gotRank := pipelet.RankByCost(prog, prof, pm, part), ev.rank(part)
				if !reflect.DeepEqual(wantRank, gotRank) {
					t.Fatalf("%s: view ranking differs from RankByCost:\n%v\n%v", label, gotRank, wantRank)
				}
				if pinned {
					pm.SRAMFactor = 0
					if flat := costmodel.ExpectedLatency(prog, prof, pm); got >= flat {
						t.Fatalf("%s: pinning every table must lower the baseline: %v >= %v", label, got, flat)
					}
				}
			}
		}
	}
}

// randomPlacement draws tiers (some beyond the target's, to be clamped) and
// copies for a fifth of the tables each.
func randomPlacement(r *rand.Rand, prog *p4ir.Program, pm costmodel.Params) Placement {
	pl := NewPlacement(prog, pm)
	for _, name := range sortedTables(prog) {
		switch r.Intn(5) {
		case 0:
			pl.Tier[name] = costmodel.TierID(r.Intn(4))
		case 1:
			pl.Copies[name] = true
		}
	}
	return pl
}

// Property: tier placement is an argument to the view. One held view
// prices many placements — concurrently, it is read-only — exactly as a
// fresh one-shot EstimateHeteroLatency prices each, on two- and three-tier
// targets, over graphs with switch-case tables and conditionals and over
// the legacy planner's chains; and nothing of one call leaks into the next.
func TestHeteroEstimateIsAPlacementArgument(t *testing.T) {
	check := func(label string, prog *p4ir.Program, prof *profile.Profile, pm costmodel.Params, r *rand.Rand) {
		t.Helper()
		pls := make([]Placement, 8)
		for k := range pls {
			pls[k] = randomPlacement(r, prog, pm)
		}
		view := NewEvaluator(prog, prof, pm, Config{})
		held := make([]float64, len(pls))
		var wg sync.WaitGroup
		for k := range pls {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				held[k], _ = view.HeteroLatency(pls[k])
			}(k)
		}
		wg.Wait()
		for k, pl := range pls {
			fresh, err := EstimateHeteroLatency(prog, prof, pm, pl)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if math.Float64bits(fresh) != math.Float64bits(held[k]) {
				t.Fatalf("%s placement %d: held view %v != one-shot %v", label, k, held[k], fresh)
			}
		}
		if again, _ := view.HeteroLatency(pls[0]); math.Float64bits(again) != math.Float64bits(held[0]) {
			t.Fatalf("%s: re-pricing the first placement moved: %v != %v", label, again, held[0])
		}
	}
	for i := 0; i < sessionSeeds; i++ {
		r := rand.New(rand.NewSource(int64(4100 + i)))
		prog, prof := viewCase(i)
		for j, name := range sortedTables(prog) {
			switch j % 4 {
			case 1:
				prog.Tables[name].Unsupported = true
			case 3:
				prog.Tables[name].MinTier = 1
			}
			if r.Intn(3) == 0 {
				prof.UpdateRates[name] = float64(r.Intn(100000))
			}
		}
		for _, preset := range presets {
			pm := preset()
			check(fmt.Sprintf("seed %d %s", i, pm.Name), prog, prof, pm, r)
		}
		chain := propProgram(r, i)
		check(fmt.Sprintf("chain %d", i), chain, propProfile(r, chain), propParams(r), r)
	}

	// A program with no topological order is an error from the held view
	// too, not a free program.
	cyclic := interlaced(t)
	cyclic.Tables["s2"].BaseNext = "u1"
	if _, err := NewEvaluator(cyclic, profile.New(), heteroParams(), Config{}).HeteroLatency(NewPlacement(cyclic, heteroParams())); err == nil {
		t.Fatal("cyclic program priced without error")
	}
}

// Property: refreshing a view with profile B after profile A leaves every
// profile-dependent array exactly as a fresh view on B has it, so a warm
// session cannot carry a stale reach, rate or edge share into a round.
func TestRefreshReusesView(t *testing.T) {
	for i := 0; i < sessionSeeds; i++ {
		pspec, profSpec, pm := sessionCase(i)
		prog := synth.Program(pspec)
		a := synth.SynthesizeProfile(prog, profSpec)
		b := synth.SynthesizeProfile(prog, synth.ProfileSpec{Seed: profSpec.Seed + 999, Category: profSpec.Category})
		// B starves one arm of every conditional and stops updating: values
		// A set must be overwritten by zeros, not merely by other values.
		for name := range prog.Conds {
			b.BranchCounts[name] = [2]uint64{1000, 0}
		}
		for name := range prog.Tables {
			a.UpdateRates[name] = 50
			a.KeyCardinality[name] = 7
		}
		warm := NewEvaluator(prog, a, pm, DefaultConfig())
		warm.refresh(b)
		fresh := NewEvaluator(prog, b, pm, DefaultConfig())
		for _, f := range []struct {
			name       string
			got, fresh any
		}{
			{"reach", warm.reach, fresh.reach},
			{"dropRate", warm.dropRate, fresh.dropRate},
			{"actLat", warm.actLat, fresh.actLat},
			{"card", warm.card, fresh.card},
			{"updRate", warm.updRate, fresh.updRate},
			{"share", warm.share, fresh.share},
		} {
			if !reflect.DeepEqual(f.got, f.fresh) {
				t.Fatalf("seed %d: %s after refresh differs from a fresh view:\n%v\n%v", i, f.name, f.got, f.fresh)
			}
		}
		if warm.prof != b {
			t.Fatalf("seed %d: refresh kept the old profile", i)
		}
	}
}

// Property: the view follows the table entries. The runtime's entry API
// edits the session's program in place and a table's match complexity
// counts the distinct masks and prefix lengths among its entries, so after
// inserts that add a mask and a prefix length — announced through the
// verifier's entry epoch, as core.Runtime and the control-plane server do —
// a warm session's baseline is costmodel.ExpectedLatency on the program as
// it now stands, its ranking pipelet.RankByCost, and its options (merge
// memory and update costs read entry counts) a cold search's, whether the
// next round brings a new profile or the same one again. At the parent the
// view kept the match latencies of construction time: 2 409.77 ns against
// 2 604.77 ns after 26 ternary inserts under AgilioCX.
func TestViewFollowsEntryOps(t *testing.T) {
	moved := 0
	for i := 0; i < sessionSeeds; i += 3 {
		pspec, profSpec, pm := sessionCase(i)
		prog := synth.Program(pspec)
		cfg := sessionConfig(i, prog)
		p1 := synth.SynthesizeProfile(prog, profSpec)
		p2 := perturb(p1)
		s, err := NewSession(prog, pm, cfg)
		if err != nil {
			t.Fatal(err)
		}
		first, err := s.Search(p1)
		if err != nil {
			t.Fatal(err)
		}
		for round, prof := range []*profile.Profile{p2, p2} {
			for _, name := range sortedTables(prog) {
				tb := prog.Tables[name]
				e := p4ir.Entry{Priority: 1000 + round, Action: tb.Actions[0].Name, Match: make([]p4ir.MatchValue, len(tb.Keys))}
				for k := range tb.Keys {
					// A mask and a prefix length no synthesized entry has.
					e.Match[k] = p4ir.MatchValue{Value: 0, Mask: 0x5a5a0000 << uint(round), PrefixLen: 61 + round}
				}
				tb.Entries = append(tb.Entries, e)
			}
			s.Verifier().EntriesChanged()
			label := fmt.Sprintf("seed %d after insert %d", i, round)
			warm, err := s.Search(prof)
			if err != nil {
				t.Fatal(err)
			}
			want := costmodel.ExpectedLatency(prog, prof, pm)
			if math.Float64bits(warm.BaselineLatency) != math.Float64bits(want) {
				t.Fatalf("%s: view baseline %v != ExpectedLatency %v", label, warm.BaselineLatency, want)
			}
			if wantRank := pipelet.RankByCost(prog, prof, pm, s.part); !reflect.DeepEqual(wantRank, warm.Costs) {
				t.Fatalf("%s: view ranking differs from RankByCost:\n%v\n%v", label, warm.Costs, wantRank)
			}
			cold, err := coldSession(t, prog, pm, cfg).Search(prof)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, label, cold, warm)
			if warm.BaselineLatency != first.BaselineLatency {
				moved++
			}
		}
	}
	if moved == 0 {
		t.Fatal("no insert moved any baseline; the test would pass on a stale view")
	}
}
