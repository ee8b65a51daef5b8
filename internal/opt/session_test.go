package opt

import (
	"fmt"
	"sort"
	"testing"

	"pipeleon/internal/analysis"
	"pipeleon/internal/costmodel"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/profile"
	"pipeleon/internal/synth"
)

const sessionSeeds = 120

func sessionCase(i int) (synth.ProgramSpec, synth.ProfileSpec, costmodel.Params) {
	seed := uint64(7000 + i*131)
	cat := synth.Category(i % 4)
	pspec := synth.ProgramSpec{
		Pipelets: 3 + i%9,
		AvgLen:   1.5 + float64(i%3),
		Category: cat,
		Seed:     seed,
	}
	var pm costmodel.Params
	switch i % 3 {
	case 0:
		pm = costmodel.BlueField2()
	case 1:
		pm = costmodel.AgilioCX()
	default:
		pm = costmodel.EmulatedNIC()
	}
	return pspec, synth.ProfileSpec{Seed: seed + 1, Category: cat}, pm
}

// sessionConfig is the corpus configuration of case i: exhaustive top-k,
// resource budgets on every fifth case, and on every third the N-tier
// placement unit — some tables of prog floored off the ASIC (i%3==0 cases
// run under BlueField2, which has the off-path tier, so the three-way
// planner runs in earnest).
func sessionConfig(i int, prog *p4ir.Program) Config {
	cfg := DefaultConfig()
	cfg.TopKFrac = 1
	if i%5 == 0 {
		cfg.MemoryBudget = 1 << 16
		cfg.UpdateBudget = 4000
	}
	if i%3 == 0 {
		for j, name := range sortedTables(prog) {
			switch j % 4 {
			case 1:
				prog.Tables[name].Unsupported = true
			case 3:
				prog.Tables[name].MinTier = 1
			}
		}
		cfg.EnablePlacement = true
		cfg.MaxPlacementMoves = 4
	}
	return cfg
}

// perturb returns a copy of prof with one table's busiest action count
// bumped by one packet — a drift no operator would call a traffic shift,
// but a material change for every unit whose model inputs it reaches
// (drop probability, action mix, downstream reach).
func perturb(prof *profile.Profile) *profile.Profile {
	out := prof.Clone()
	tables := make([]string, 0, len(out.ActionCounts))
	for t := range out.ActionCounts {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	for _, t := range tables {
		acts := make([]string, 0, len(out.ActionCounts[t]))
		for a := range out.ActionCounts[t] {
			acts = append(acts, a)
		}
		if len(acts) == 0 {
			continue
		}
		sort.Strings(acts)
		out.ActionCounts[t][acts[0]]++
		return out
	}
	return out
}

func sameResults(t *testing.T, label string, cold, warm *SearchResult) {
	t.Helper()
	if len(warm.Units) != len(cold.Units) {
		t.Fatalf("%s: %d units != %d cold", label, len(warm.Units), len(cold.Units))
	}
	for i := range cold.Units {
		cu, wu := cold.Units[i], warm.Units[i]
		if cu.Name != wu.Name || len(cu.Options) != len(wu.Options) {
			t.Fatalf("%s: unit %d mismatch: %s/%d vs %s/%d",
				label, i, cu.Name, len(cu.Options), wu.Name, len(wu.Options))
		}
		for j := range cu.Options {
			co, wo := cu.Options[j], wu.Options[j]
			if co.String() != wo.String() || co.Gain != wo.Gain ||
				co.MemCost != wo.MemCost || co.UpdateCost != wo.UpdateCost {
				t.Fatalf("%s: unit %s option %d differs: %s gain=%v mem=%d upd=%v vs %s gain=%v mem=%d upd=%v",
					label, cu.Name, j, co, co.Gain, co.MemCost, co.UpdateCost, wo, wo.Gain, wo.MemCost, wo.UpdateCost)
			}
		}
	}
	if warm.CandidatesEvaluated != cold.CandidatesEvaluated {
		t.Errorf("%s: candidates %d != %d", label, warm.CandidatesEvaluated, cold.CandidatesEvaluated)
	}
	if warm.Gain != cold.Gain {
		t.Errorf("%s: gain %v != %v", label, warm.Gain, cold.Gain)
	}
	if warm.BaselineLatency != cold.BaselineLatency {
		t.Errorf("%s: baseline %v != %v", label, warm.BaselineLatency, cold.BaselineLatency)
	}
	if len(warm.Plan) != len(cold.Plan) {
		t.Fatalf("%s: plan size %d != %d", label, len(warm.Plan), len(cold.Plan))
	}
	for i := range cold.Plan {
		if cold.Plan[i].String() != warm.Plan[i].String() {
			t.Errorf("%s: plan[%d] %s != %s", label, i, warm.Plan[i], cold.Plan[i])
		}
	}
}

// Property (the warm-session contract): a Session fed a sequence of
// drifting profiles produces, at every round, results bit-identical to a
// fresh session's under that round's profile — same units, option strings,
// gains, plan, and candidate counts — whether the drift is one packet
// (round 2) or an entirely different workload (round 3). Nothing of a
// round's prices outlives it, so there is no hit condition to meet: the
// drifting sequence is the contract. Run under -race this also exercises
// the session's internal locking against the per-unit worker pool.
func TestWarmSessionMatchesColdSearch(t *testing.T) {
	var hits, misses uint64
	replanned := 0
	for i := 0; i < sessionSeeds; i++ {
		pspec, profSpec, pm := sessionCase(i)
		prog := synth.Program(pspec)
		p1 := synth.SynthesizeProfile(prog, profSpec)
		p2 := perturb(p1)
		p3 := synth.SynthesizeProfile(prog, synth.ProfileSpec{Seed: profSpec.Seed + 999, Category: profSpec.Category})

		cfg := sessionConfig(i, prog)

		s, err := NewSession(prog, pm, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		var first *SearchResult
		for r, prof := range []*profile.Profile{p1, p2, p3} {
			cold, err := coldSession(t, prog, pm, cfg).Search(prof)
			if err != nil {
				t.Fatalf("seed %d round %d: cold: %v", i, r, err)
			}
			warm, err := s.Search(prof)
			if err != nil {
				t.Fatalf("seed %d round %d: warm: %v", i, r, err)
			}
			sameResults(t, fmt.Sprintf("seed %d round %d", i, r), cold, warm)
			switch r {
			case 0:
				first = cold
			case 2:
				if cold.BaselineLatency != first.BaselineLatency && fmt.Sprint(cold.Plan) != fmt.Sprint(first.Plan) {
					replanned++
				}
			}
			if cr, wr := coldReScore(t, prog, prof, pm, cfg, cold.Plan), s.ReScore(prof, warm.Plan); cr != wr {
				t.Errorf("seed %d round %d: rescore %v != %v", i, r, wr, cr)
			}
		}
		st := s.Stats()
		hits += st.UnitHits
		misses += st.UnitMisses
		if st.Rounds != 3 {
			t.Fatalf("seed %d: session served %d rounds, want 3", i, st.Rounds)
		}
		if n := uint64(len(s.part.Pipelets)); st.UnitMisses > n {
			t.Fatalf("seed %d: %d skeletons built for %d pipelets", i, st.UnitMisses, n)
		}
	}
	// Skeletons are built in round 1 and reused in rounds 2 and 3 whatever
	// the drift, and round 3's workload swap moves the baseline and the
	// chosen plan for at least some seeds.
	if hits < misses {
		t.Errorf("skeletons reused %d times, built %d: rounds 2 and 3 should both reuse round 1's", hits, misses)
	}
	if misses == 0 {
		t.Error("no skeleton was ever built across the corpus")
	}
	if replanned == 0 {
		t.Error("no seed's workload swap moved both the baseline and the plan")
	}
}

// VerifyOption is the reference verdict the session's fast verification
// path is pinned against (moved here verbatim from the package). It
// applies one option in isolation and reports whether the
// resulting rewrite provably preserves the original program's dependency
// structure (analysis.VerifyRewrite). Candidate enumeration already gates
// on the deps-level legality rules, so a false result means an unsound
// candidate slipped through a heuristic (e.g. a group cache spanning
// chained diamonds with a cross-member dependency) and must not reach a
// device.
func VerifyOption(prog *p4ir.Program, o *Option, cfg Config) bool {
	rw, err := Apply(prog, []*Option{o}, cfg)
	if err != nil {
		return false
	}
	return !analysis.VerifyRewrite(prog, rw.Program).HasErrors()
}

// Property: the session's fast verification path — shared scratch clone,
// touched-subgraph edge restriction, verdict memo — returns exactly
// VerifyOption's verdict for every candidate the enumerator can produce,
// not just the ones a plan selects.
func TestPlanVerifierMatchesVerifyOption(t *testing.T) {
	checked, fastTrue := 0, 0
	for i := 0; i < sessionSeeds; i += 4 {
		pspec, profSpec, pm := sessionCase(i)
		prog := synth.Program(pspec)
		prof := synth.SynthesizeProfile(prog, profSpec)
		cfg := DefaultConfig()
		cfg.TopKFrac = 1

		s, err := NewSession(prog, pm, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		res, err := s.Search(prof)
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		v := s.verifier
		for _, u := range res.Units {
			opts := u.Options
			if len(opts) > 12 {
				opts = opts[:12]
			}
			for _, o := range opts {
				want := VerifyOption(prog, o, cfg)
				got := v.verify(o)
				if got != want {
					t.Fatalf("seed %d: verdict mismatch for %s: fast=%v full=%v", i, o, got, want)
				}
				// Memoized second call must agree too.
				if again := v.verify(o); again != want {
					t.Fatalf("seed %d: memoized verdict flipped for %s", i, o)
				}
				checked++
				if got {
					fastTrue++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no candidates verified")
	}
	if fastTrue == 0 {
		t.Error("verifier accepted nothing across the corpus")
	}
}

// A search of a warm session on a profile that moved — the only search the
// runtime asks for — must stay allocation-light: the skeletons are held,
// the price tables and the selection's buffers are the view's, and Options
// exist only for the survivors, one slab per pipelet. The budget is the
// measured 845 objs/search on the 110-table program plus 15 % (the
// enumerate-and-score search made 13 900), and most of it is the one
// derivation of the cost view (one ReachProbs, one ActionProb map per
// table): a second walk of the profile anywhere in the round overdraws it.
func TestWarmSearchAllocBudget(t *testing.T) {
	s, profs := driftRig(t)
	round := 0
	allocs := testing.AllocsPerRun(16, func() {
		if _, err := s.Search(profs[round%len(profs)]); err != nil {
			t.Fatal(err)
		}
		round++
	})
	const budget = 970
	if allocs > budget {
		t.Fatalf("drifting search allocates %.0f objs/op, budget %d", allocs, budget)
	}
}
