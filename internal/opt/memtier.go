package opt

import (
	"sort"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/profile"
)

// Hierarchical memory support — the paper's §6 future-work item, built as
// an optional pass: on targets whose P4 toolchain can pin tables to a
// faster memory tier (Params.SRAMFactor > 0), PlanMemoryTiers chooses
// which tables to promote within the fast-memory capacity, preferring the
// tables whose probe traffic saves the most latency per byte.

// TierPlan is the outcome of memory-tier planning.
type TierPlan struct {
	// Promote lists tables to pin to SRAM, in decreasing benefit order.
	Promote []string
	// GainNs is the expected whole-program latency reduction.
	GainNs float64
	// Bytes is the SRAM consumed.
	Bytes int
}

// PlanMemoryTiers greedily fills the target's SRAM capacity with the
// tables maximizing saved latency per byte:
//
//	benefit(t) = P(reach t) · m_t · Lmat · (1 − SRAMFactor)
//	density(t) = benefit(t) / Table.MemoryBytes(t)
//
// Tables already pinned to SRAM are skipped.
func PlanMemoryTiers(prog *p4ir.Program, prof *profile.Profile, pm costmodel.Params) TierPlan {
	var plan TierPlan
	k := pm.Kernel()
	if k.SRAM <= 0 || k.SRAM >= 1 || pm.SRAMBytes <= 0 {
		return plan
	}
	ev := NewEvaluator(prog, prof, pm, Config{})
	type cand struct {
		name    string
		benefit float64
		bytes   int
	}
	var cands []cand
	for _, i := range ev.ix.Tables() {
		t := ev.ix.Table(i)
		if t.MemTier() == p4ir.TierSRAM {
			continue
		}
		bytes := ev.memBytes[i]
		benefit := ev.reach[i] * float64(ev.mcomp[i]) * k.Mat * (1 - k.SRAM)
		if benefit <= 0 {
			continue
		}
		cands = append(cands, cand{name: t.Name, benefit: benefit, bytes: bytes})
	}
	sort.SliceStable(cands, func(i, j int) bool {
		di := cands[i].benefit / float64(cands[i].bytes)
		dj := cands[j].benefit / float64(cands[j].bytes)
		if di != dj {
			return di > dj
		}
		return cands[i].name < cands[j].name
	})
	budget := pm.SRAMBytes
	for _, c := range cands {
		if c.bytes > budget {
			continue
		}
		budget -= c.bytes
		plan.Promote = append(plan.Promote, c.name)
		plan.GainNs += c.benefit
		plan.Bytes += c.bytes
	}
	return plan
}

// ApplyMemoryTiers returns a clone of prog with the plan's tables pinned
// to SRAM.
func ApplyMemoryTiers(prog *p4ir.Program, plan TierPlan) *p4ir.Program {
	out := prog.Clone()
	for _, name := range plan.Promote {
		if t, ok := out.Tables[name]; ok {
			t.SetMemTier(p4ir.TierSRAM)
		}
	}
	return out
}
