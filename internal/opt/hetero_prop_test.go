package opt

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/profile"
)

// The N-tier generalization contract: on a two-tier target (no off-path
// tier) the new placement layer is the old ASIC/CPU split, bit for bit.
// This file pins that with a verbatim test-local copy of the pre-N-tier
// estimator and copy planner (legacy* below) and a 120-seed random
// corpus: same estimates to the last ulp, and the three-way planner
// degenerating exactly to the legacy copy planner — same greedy plans, no
// re-tiering.

// legacyPlacement is the old two-pipeline placement type.
type legacyPlacement struct {
	CPU    map[string]bool
	Copies map[string]bool
}

func legacyClone(p legacyPlacement) legacyPlacement {
	out := legacyPlacement{CPU: map[string]bool{}, Copies: map[string]bool{}}
	for k := range p.CPU {
		out.CPU[k] = true
	}
	for k := range p.Copies {
		out.Copies[k] = true
	}
	return out
}

// legacyEstimate is the old EstimateHeteroLatency, verbatim.
func legacyEstimate(prog *p4ir.Program, prof *profile.Profile, pm costmodel.Params, pl legacyPlacement) float64 {
	order, err := prog.TopoOrder()
	if err != nil {
		return 0
	}
	reach, ix := prof.ReachProbs(prog), p4ir.NewIndex(prog)
	pCPU := map[string]float64{}
	var total float64
	for _, name := range order {
		mass := reach[name]
		if mass <= 0 {
			continue
		}
		onCPU := pCPU[name]
		t, _ := prog.Node(name)
		var afterCPU float64
		if t != nil {
			wantsCPU := t.Unsupported || pl.CPU[name]
			copied := pl.Copies[name]
			var mult, migProb float64
			switch {
			case copied:
				mult = onCPU*pm.CPUSlowdown + (1-onCPU)*1
				migProb = 0
				afterCPU = onCPU
			case wantsCPU:
				mult = pm.CPUSlowdown
				migProb = 1 - onCPU
				afterCPU = 1
			default:
				mult = 1
				migProb = onCPU
				afterCPU = 0
			}
			if pm.CPUSlowdown <= 0 {
				mult = 1
			}
			k := pm.Kernel()
			node := k.NodeLatency(prog, prof, name)
			total += mass * (node*mult + migProb*pm.MigrationLatency)
		} else {
			total += mass * (pm.BranchFactor * pm.Lmat)
			afterCPU = onCPU
		}
		for _, id := range ix.Succ(ix.ID(name)) {
			if s := ix.Name(id); reach[s] > 0 {
				pCPU[s] += afterCPU * (mass / reach[s]) * edgeShare(prog, prof, name, s)
			}
		}
	}
	return total
}

// edgeShare approximates the fraction of `from`'s outgoing traffic that
// goes to `to` — the per-call probability lookup the legacy estimator made
// per edge, verbatim (the view derives every share once per profile).
func edgeShare(prog *p4ir.Program, prof *profile.Profile, from, to string) float64 {
	if t, c := prog.Node(from); t != nil {
		if !t.IsSwitchCase() {
			if t.BaseNext == to {
				return 1 - dropProb(prof, t)
			}
			return 0
		}
		probs := prof.ActionProb(t)
		var share float64
		for _, a := range t.Actions {
			if a.Drops() {
				continue
			}
			if t.NextFor(a.Name) == to {
				share += probs[a.Name]
			}
		}
		return share
	} else if c != nil {
		pt := prof.BranchProb(from)
		var share float64
		if c.TrueNext == to {
			share += pt
		}
		if c.FalseNext == to {
			share += 1 - pt
		}
		return share
	}
	return 0
}

// legacyGreedyCopyPlan is the old GreedyCopyPlan, verbatim.
func legacyGreedyCopyPlan(prog *p4ir.Program, prof *profile.Profile, pm costmodel.Params, base legacyPlacement, maxCopies int) legacyPlacement {
	best := legacyClone(base)
	bestLat := legacyEstimate(prog, prof, pm, best)
	var names []string
	for name, t := range prog.Tables {
		if !t.Unsupported && !base.CPU[name] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for c := 0; c < maxCopies; c++ {
		var pick string
		pickLat := bestLat
		for _, name := range names {
			if best.Copies[name] {
				continue
			}
			trial := legacyClone(best)
			trial.Copies[name] = true
			lat := legacyEstimate(prog, prof, pm, trial)
			if lat < pickLat-1e-12 {
				pick, pickLat = name, lat
			}
		}
		if pick == "" {
			break
		}
		best.Copies[pick] = true
		bestLat = pickLat
	}
	return best
}

// propProgram builds a random chain with legacy Unsupported marks — the
// only hetero vocabulary the old planner knew.
func propProgram(r *rand.Rand, seed int) *p4ir.Program {
	fields := []string{"ipv4.dstAddr", "ipv4.srcAddr", "tcp.sport", "tcp.dport", "ipv4.tos"}
	n := 4 + r.Intn(7)
	specs := make([]p4ir.TableSpec, n)
	for i := range specs {
		name := fmt.Sprintf("t%d", i)
		var prims []p4ir.Primitive
		for k := 0; k < 1+r.Intn(5); k++ {
			prims = append(prims, p4ir.Prim("modify_field", fmt.Sprintf("meta.%s_%d", name, k), "1"))
		}
		acts := []*p4ir.Action{p4ir.NewAction("apply", prims...), p4ir.NoopAction("pass")}
		if r.Intn(3) == 0 {
			acts = append(acts, p4ir.DropAction())
		}
		field := fields[r.Intn(len(fields))]
		specs[i] = p4ir.TableSpec{
			Name:          name,
			Keys:          []p4ir.Key{{Field: field, Kind: p4ir.MatchExact, Width: packet.FieldWidth(field)}},
			Actions:       acts,
			DefaultAction: "pass",
			Unsupported:   r.Intn(3) == 0,
		}
	}
	prog, err := p4ir.ChainTables(fmt.Sprintf("prop%d", seed), specs)
	if err != nil {
		panic(err)
	}
	return prog
}

// propProfile draws random per-action traffic (sorted iteration keeps the
// draw sequence deterministic per seed).
func propProfile(r *rand.Rand, prog *p4ir.Program) *profile.Profile {
	prof := profile.New()
	names := make([]string, 0, len(prog.Tables))
	for name := range prog.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := map[string]uint64{}
		for _, a := range prog.Tables[name].Actions {
			m[a.Name] = uint64(r.Intn(1000)) + 1
		}
		prof.ActionCounts[name] = m
	}
	return prof
}

// propParams draws a random two-tier model, including the degenerate
// CPUSlowdown=0 and MigrationLatency=0 corners the old code special-cased.
func propParams(r *rand.Rand) costmodel.Params {
	pm := costmodel.EmulatedNIC()
	pm.CPUSlowdown = 1 + 7*r.Float64()
	if r.Intn(10) == 0 {
		pm.CPUSlowdown = 0
	}
	pm.MigrationLatency = 800 * r.Float64()
	if r.Intn(10) == 0 {
		pm.MigrationLatency = 0
	}
	pm.Lmat = 5 + 20*r.Float64()
	pm.Lact = 1 + 4*r.Float64()
	return pm
}

func sortedSet(m map[string]bool) []string {
	var out []string
	for k, v := range m {
		if v {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// legacyToNew lifts an old placement onto the N-tier type.
func legacyToNew(prog *p4ir.Program, pm costmodel.Params, old legacyPlacement) Placement {
	pl := NewPlacement(prog, pm)
	for name := range old.CPU {
		pl.Tier[name] = costmodel.TierNICCPU
	}
	for name := range old.Copies {
		pl.Copies[name] = true
	}
	return pl
}

func TestTwoTierPlacementMatchesLegacyPlanner(t *testing.T) {
	const seeds = 120
	var planned int
	for i := 0; i < seeds; i++ {
		r := rand.New(rand.NewSource(int64(9000 + i*257)))
		prog := propProgram(r, i)
		prof := propProfile(r, prog)
		pm := propParams(r)

		oldBase := legacyPlacement{CPU: map[string]bool{}, Copies: map[string]bool{}}
		for name, tb := range prog.Tables {
			if tb.Unsupported {
				oldBase.CPU[name] = true
			}
		}
		// Pre-copy a random eligible table on half the seeds so the
		// estimate comparison also covers mixed states, not just planner
		// outputs.
		var eligible []string
		for name, tb := range prog.Tables {
			if !tb.Unsupported {
				eligible = append(eligible, name)
			}
		}
		sort.Strings(eligible)
		if len(eligible) > 0 && r.Intn(2) == 0 {
			oldBase.Copies[eligible[r.Intn(len(eligible))]] = true
		}
		newBase := legacyToNew(prog, pm, oldBase)

		oldLat := legacyEstimate(prog, prof, pm, oldBase)
		newLat, err := EstimateHeteroLatency(prog, prof, pm, newBase)
		if err != nil {
			t.Fatalf("seed %d: estimate: %v", i, err)
		}
		if math.Float64bits(oldLat) != math.Float64bits(newLat) {
			t.Fatalf("seed %d: estimate drifted: legacy %v (%x) vs new %v (%x)",
				i, oldLat, math.Float64bits(oldLat), newLat, math.Float64bits(newLat))
		}

		maxCopies := 1 + r.Intn(4)
		oldPlan := legacyGreedyCopyPlan(prog, prof, pm, oldBase, maxCopies)
		newPlan, err := GreedyPlacementPlan(prog, prof, pm, newBase, maxCopies)
		if err != nil {
			t.Fatalf("seed %d: copy plan: %v", i, err)
		}
		if oc, nc := sortedSet(oldPlan.Copies), sortedSet(newPlan.Copies); !sameStrings(oc, nc) {
			t.Fatalf("seed %d: copy plans diverged: legacy %v vs new %v", i, oc, nc)
		}
		if len(newPlan.Copies) > 0 {
			planned++
		}
		oldPlanLat := legacyEstimate(prog, prof, pm, oldPlan)
		newPlanLat, err := EstimateHeteroLatency(prog, prof, pm, newPlan)
		if err != nil {
			t.Fatalf("seed %d: plan estimate: %v", i, err)
		}
		if math.Float64bits(oldPlanLat) != math.Float64bits(newPlanLat) {
			t.Fatalf("seed %d: plan estimate drifted: %v vs %v", i, oldPlanLat, newPlanLat)
		}

		// With no off-path tier the three-way planner must be exactly the
		// copy planner: the same copies (checked against the legacy planner
		// above), and no re-tiering.
		if len(newPlan.Tier) != len(newBase.Tier) {
			t.Fatalf("seed %d: three-way re-tiered on a two-tier target: %v vs %v",
				i, newPlan.Tier, newBase.Tier)
		}
		for name, d := range newBase.Tier {
			if newPlan.Tier[name] != d {
				t.Fatalf("seed %d: table %s moved to tier %d on a two-tier target", i, name, newPlan.Tier[name])
			}
		}
	}
	// The corpus must actually exercise the planner, not just empty plans.
	if planned < 10 {
		t.Errorf("only %d/%d seeds produced a non-empty copy plan; corpus too easy", planned, seeds)
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
