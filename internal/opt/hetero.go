package opt

import (
	"fmt"
	"sort"
	"strings"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/profile"
)

// Heterogeneous-target support (§3.2.4), generalized to N execution
// tiers: SmartNICs run a partitioned program across an ASIC pipeline,
// on-path CPU cores, and — on off-path designs — a host/DPU complex
// behind a PCIe/DMA wall. Packets migrate between tiers with
// intermediate state piggybacked; each tier pair has its own crossing
// cost (costmodel.Kernel.Migrate), and off-path crossings amortize with
// DMA batch depth. Pipeleon minimizes migration overhead by (1)
// reordering for longer same-tier runs, (2) caching software-only
// results on the ASIC, and (3) copying tables needed by several tiers.
// This file implements the placement cost model, the greedy
// table-copying planner evaluated in Appendix A.2, and the three-way
// planner that adds single-table re-tiering and the PnO-style
// whole-stage offload.

// Placement assigns tables to execution tiers.
type Placement struct {
	// Tier maps tables to their assigned execution tier. Absent tables
	// run on their floor tier (Table.TierFloor, 0 for ordinary tables),
	// so the zero placement reproduces the legacy "unsupported tables
	// go to the CPU" baseline.
	Tier map[string]costmodel.TierID
	// Copies holds tables replicated on every tier; packets execute
	// them wherever they currently are, avoiding migration at the price
	// of that tier's execution speed.
	Copies map[string]bool
}

// NewPlacement derives the baseline placement from the program: every
// table sits on its floor tier, which for legacy programs means
// Unsupported tables go to the NIC CPU. Assignments record intent — a
// floor above the target's top tier stays as-is and is clamped to the
// tiers pm actually has only when costs are evaluated (Kernel.Tier).
func NewPlacement(prog *p4ir.Program, pm costmodel.Params) Placement {
	pl := Placement{Tier: map[string]costmodel.TierID{}, Copies: map[string]bool{}}
	for name, t := range prog.Tables {
		if d := costmodel.TierID(t.TierFloor()); d > 0 {
			pl.Tier[name] = d
		}
	}
	return pl
}

// clonePlacement deep-copies a placement.
func clonePlacement(p Placement) Placement {
	out := Placement{Tier: map[string]costmodel.TierID{}, Copies: map[string]bool{}}
	for k, v := range p.Tier {
		out.Tier[k] = v
	}
	for k := range p.Copies {
		out.Copies[k] = true
	}
	return out
}

// String renders the placement deterministically (sorted names); it is
// part of the Option.String() verifier/memo key.
func (p Placement) String() string {
	var sb strings.Builder
	sb.WriteString("tier{")
	names := make([]string, 0, len(p.Tier))
	for n, d := range p.Tier {
		if d > 0 {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%d", n, int(p.Tier[n]))
	}
	sb.WriteString("} copy{")
	names = names[:0]
	for n := range p.Copies {
		names = append(names, n)
	}
	sort.Strings(names)
	sb.WriteString(strings.Join(names, ","))
	sb.WriteString("}")
	return sb.String()
}

// placedTier resolves a table's effective tier under a placement.
func (ev *Evaluator) placedTier(pl Placement, t *p4ir.Table) costmodel.TierID {
	return ev.kern.Tier(int(pl.Tier[t.Name]), t.TierFloor())
}

// EstimateHeteroLatency computes the expected per-packet latency of a
// program under a placement: one HeteroLatency over a view built for the
// call. A caller pricing several placements of one (program, profile,
// target) should hold the view (NewEvaluator) instead.
func EstimateHeteroLatency(prog *p4ir.Program, prof *profile.Profile, pm costmodel.Params, pl Placement) (float64, error) {
	return NewEvaluator(prog, prof, pm, Config{}).HeteroLatency(pl)
}

// HeteroLatency computes the expected per-packet latency of the program
// under a placement, including per-pair migration costs and per-tier
// update-install stalls: the view's Σ P(reach v)·L(v) with each node's
// L(v) scaled by the speed of the tier it runs on, plus the crossings,
// walking the DAG in topological order while carrying a per-tier
// probability vector across joins. For branch-free chains (the Appendix
// A.2 benchmark shape) this is exact; for DAGs it approximates by
// probability-weighting the tier state.
// The placement is an argument: one view prices any number of them. A
// cyclic or disconnected program returns the TopoOrder error — it used to
// be silently reported as zero latency, i.e. "free program".
func (ev *Evaluator) HeteroLatency(pl Placement) (float64, error) {
	if ev.topoErr != nil {
		return 0, fmt.Errorf("opt: hetero estimate: %w", ev.topoErr)
	}
	return ev.heteroLatency(pl), nil
}

// heteroLatency is HeteroLatency on a program known to have a topological
// order.
func (ev *Evaluator) heteroLatency(pl Placement) float64 {
	k := &ev.kern
	w := k.Tiers - 1
	// q[i*w+d-1] = probability the packet is on tier d (d >= 1) when it
	// arrives at node i, conditioned on reaching it. Tier-0 mass is the
	// residual 1 - sum, mirroring the legacy scalar pCPU. The row past the
	// last node is scratch: the tier state after a table that is not copied.
	n := len(ev.nodeNames)
	q := make([]float64, (n+1)*w)
	var total float64
	for _, i := range ev.topo {
		mass := ev.reach[i]
		if mass <= 0 {
			continue
		}
		arr := q[i*w : (i+1)*w]
		after := arr
		// blend is the speed of a node that runs wherever the packet is —
		// a conditional or a copied table: the tier speeds weighted by
		// arrival mass. Such a node moves no packet.
		var qsum, blend float64
		for j, v := range arr {
			qsum += v
			blend += v * k.Speed[j+1]
		}
		blend += (1 - qsum) * k.Speed[0]
		if i >= ev.numTables {
			total += mass * (k.Cond * blend)
		} else {
			mult, mig, stall := blend, 0.0, 0.0
			if !pl.Copies[ev.nodeNames[i]] {
				d := ev.placedTier(pl, ev.tables[i])
				mult = k.Speed[d]
				if d != 0 {
					if r := 1 - qsum; r != 0 {
						mig += r * k.Migrate[0][d]
					}
				}
				for j, v := range arr {
					if from := costmodel.TierID(j + 1); from != d && v != 0 {
						mig += v * k.Migrate[from][d]
					}
				}
				stall = k.Stall[d]
				after = q[n*w:]
				clear(after)
				if d != 0 {
					after[d-1] = 1
				}
			}
			total += mass * (ev.nodeLat(i)*mult + mig)
			// Entry churn stalls packets while the table's tier installs
			// updates. Zero for legacy parameter sets, so the term is
			// skipped and the two-tier estimate stays bit-identical.
			if ur := ev.updRate[i]; stall != 0 && ur != 0 {
				total += mass * ur * stall
			}
		}
		// Propagate tier state to successors (weighted by how much of
		// their traffic comes from here).
		for e := ev.succOff[i]; e < ev.succOff[i+1]; e++ {
			s := ev.succ[e]
			if ev.reach[s] > 0 {
				for j, v := range after {
					if v != 0 {
						q[s*w+j] += v * (mass / ev.reach[s]) * ev.share[e]
					}
				}
			}
		}
	}
	return total
}

// copyCandidates lists tables eligible for tier replication, in sorted
// order: floor-0 tables still on tier 0 whose state is not pinned.
func (ev *Evaluator) copyCandidates(base Placement) []string {
	var names []string
	for _, t := range ev.tables {
		if t.TierFloor() == 0 && !t.Sticky && ev.placedTier(base, t) == 0 {
			names = append(names, t.Name)
		}
	}
	return names
}

// placementMove is one candidate step of the three-way planner.
type placementMove struct {
	// copyTable, when set, replicates one table across tiers.
	copyTable string
	// members, when set, moves a contiguous run of tables to tier
	// `tier` (a single-table re-tier is the len==1 case; len>=2 is the
	// PnO-style whole-stage offload, which drags a software stage's
	// neighbors along so the whole run executes behind one crossing).
	members []string
	tier    costmodel.TierID
}

func (m placementMove) apply(pl Placement) Placement {
	trial := clonePlacement(pl)
	if m.copyTable != "" {
		trial.Copies[m.copyTable] = true
		return trial
	}
	for _, name := range m.members {
		trial.Tier[name] = m.tier
		// A table that lives on one tier is no longer a cross-tier
		// replica.
		delete(trial.Copies, name)
	}
	return trial
}

// GreedyPlacementPlan chooses up to maxMoves placement moves, greedily
// committing each round the single move that most reduces the estimated
// latency: (a) replicating one table across tiers, (b) re-tiering one
// table to an off-path tier, or (c) offloading a whole contiguous stage
// (>= 2 tables, at least one already in software) to an off-path tier. It
// stops early when no move helps — capturing the Appendix A.2 observation
// that "copying only one table ... does not reduce the needed migration
// and performing the copied table on CPU cores is slower", so
// unprofitable copies are never taken. With the off-path tier disabled
// (Kernel.Tiers == 2) moves (b) and (c) enumerate nothing and the search is
// exactly the legacy greedy copy planner — a property the tests pin
// bit-for-bit. Every trial placement is priced against one view.
func GreedyPlacementPlan(prog *p4ir.Program, prof *profile.Profile, pm costmodel.Params, base Placement, maxMoves int) (Placement, error) {
	ev := NewEvaluator(prog, prof, pm, Config{})
	baseLat, err := ev.HeteroLatency(base)
	if err != nil {
		return base, err
	}
	return ev.greedyPlacement(base, baseLat, maxMoves), nil
}

// greedyPlacement is GreedyPlacementPlan over the view, from a base
// placement already priced at baseLat (so the program has a topological
// order).
func (ev *Evaluator) greedyPlacement(base Placement, baseLat float64, maxMoves int) Placement {
	best, bestLat := clonePlacement(base), baseLat
	copies := ev.copyCandidates(best)
	runs := ev.tableRuns()
	for round := 0; round < maxMoves; round++ {
		var pick placementMove
		var picked bool
		pickLat := bestLat
		consider := func(m placementMove) {
			if lat := ev.heteroLatency(m.apply(best)); lat < pickLat-1e-12 {
				pick, picked, pickLat = m, true, lat
			}
		}
		// (a) Cross-tier copies, in sorted-name order.
		for _, name := range copies {
			if !best.Copies[name] {
				consider(placementMove{copyTable: name})
			}
		}
		// (b)+(c) Re-tier a table or offload a whole stage to an
		// off-path tier. Enumerate contiguous runs of tables in topo
		// order; a run qualifies when it contains at least one table
		// already placed in software (tier >= 1) — the PnO insight is
		// that the stateful software stage drags its neighbors along.
		for d := costmodel.TierID(2); int(d) < ev.kern.Tiers; d++ {
			for _, run := range runs {
				for lo := 0; lo < len(run); lo++ {
					for hi := lo; hi < len(run); hi++ {
						seg := run[lo : hi+1]
						// ok: some member is in software and none is floored
						// above d; moves: not every member is on d already.
						ok, moves := false, false
						for _, name := range seg {
							t := ev.prog.Tables[name]
							at := ev.placedTier(best, t)
							ok = ok || at >= 1
							moves = moves || at != d
							if t.TierFloor() > int(d) {
								ok = false
								break
							}
						}
						if ok && moves {
							consider(placementMove{members: append([]string(nil), seg...), tier: d})
						}
					}
				}
			}
		}
		if !picked {
			break
		}
		best = pick.apply(best)
		bestLat = pickLat
	}
	return best
}

// tableRuns splits the topological order into maximal runs of
// consecutive table nodes (conditionals break runs: a stage offloaded
// behind one DMA crossing cannot span a branch the ASIC resolves).
func (ev *Evaluator) tableRuns() [][]string {
	var runs [][]string
	var cur []string
	for _, i := range ev.topo {
		if i < ev.numTables {
			cur = append(cur, ev.nodeNames[i])
			continue
		}
		if len(cur) > 0 {
			runs = append(runs, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		runs = append(runs, cur)
	}
	return runs
}
