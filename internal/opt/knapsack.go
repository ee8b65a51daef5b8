package opt

import (
	"sort"
)

// Unit is one group of mutually exclusive options for the knapsack: a
// pipelet (or pipelet group), from which the global plan picks at most one
// option (Appendix A.1: "Each pipelet is a group, and it has several
// options with various gains and costs ... selecting at most one option
// from each pipelet").
type Unit struct {
	Name    string
	Options []*Option
}

// GlobalOptimize solves Equation 5: choose at most one option per unit to
// maximize total gain subject to the memory budget M (bytes) and the
// entry-update budget E (ops/second). Budgets <= 0 are unconstrained.
//
// The implementation adapts the classic knapsack dynamic program of the
// paper's Figure 16 to two resource dimensions, discretizing each budget
// into cfg.MemBuckets × cfg.UpdBuckets cells. Option costs are rounded UP
// to whole cells, so the returned plan never exceeds the true budgets.
func GlobalOptimize(units []Unit, memBudget int, updBudget float64, cfg Config) []*Option {
	// Unconstrained: per-unit argmax.
	if memBudget <= 0 && updBudget <= 0 {
		var plan []*Option
		for _, u := range units {
			best := bestOption(u.Options)
			if best != nil {
				plan = append(plan, best)
			}
		}
		return plan
	}

	bm, be := cfg.MemBuckets, cfg.UpdBuckets
	if bm < 1 {
		bm = 1
	}
	if be < 1 {
		be = 1
	}
	if memBudget <= 0 {
		bm = 1 // single infinite cell
	}
	if updBudget <= 0 {
		be = 1
	}
	memCell := func(bytes int) int {
		if memBudget <= 0 || bytes <= 0 {
			return 0
		}
		c := (bytes*bm + memBudget - 1) / memBudget // ceil(bytes/ (M/bm))
		return c
	}
	updCell := func(rate float64) int {
		if updBudget <= 0 || rate <= 0 {
			return 0
		}
		per := updBudget / float64(be)
		c := int(rate / per)
		if float64(c)*per < rate {
			c++
		}
		return c
	}

	width := (bm + 1) * (be + 1)
	prev := make([]float64, width)
	cur := make([]float64, width)
	// choices[u][cell] = option index (or -1).
	choices := make([][]int16, len(units))
	idx := func(m, e int) int { return m*(be+1) + e }

	for ui, u := range units {
		choices[ui] = make([]int16, width)
		for i := range choices[ui] {
			choices[ui][i] = -1
		}
		copy(cur, prev)
		for _, oi := range orderByGain(u.Options) {
			o := u.Options[oi]
			cm, ce := memCell(o.MemCost), updCell(o.UpdateCost)
			if cm > bm || ce > be {
				continue // cannot fit even with the whole budget
			}
			for m := bm; m >= cm; m-- {
				for e := be; e >= ce; e-- {
					cand := prev[idx(m-cm, e-ce)] + o.Gain
					if cand > cur[idx(m, e)] {
						cur[idx(m, e)] = cand
						choices[ui][idx(m, e)] = int16(oi)
					}
				}
			}
		}
		prev, cur = cur, prev
	}

	// Backtrack from the full-budget cell.
	// prev currently holds the final layer.
	var plan []*Option
	m, e := bm, be
	// Recompute layers backward: we stored only per-unit choice grids, so
	// walk units in reverse subtracting chosen costs.
	for ui := len(units) - 1; ui >= 0; ui-- {
		oi := choices[ui][idx(m, e)]
		if oi < 0 {
			continue
		}
		o := units[ui].Options[oi]
		plan = append(plan, o)
		m -= memCell(o.MemCost)
		e -= updCell(o.UpdateCost)
		if m < 0 || e < 0 {
			// Defensive: should not happen.
			m, e = 0, 0
		}
	}
	// Reverse to unit order.
	for i, j := 0, len(plan)-1; i < j; i, j = i+1, j-1 {
		plan[i], plan[j] = plan[j], plan[i]
	}
	return plan
}

// bestOption returns the highest-gain option (nil if none positive).
func bestOption(opts []*Option) *Option {
	var best *Option
	for _, o := range opts {
		if o.Gain <= 0 {
			continue
		}
		if best == nil || o.Gain > best.Gain {
			best = o
		}
	}
	return best
}

// orderByGain returns option indices sorted by gain descending, so that
// ties in the DP resolve toward higher-gain choices deterministically.
func orderByGain(opts []*Option) []int {
	out := make([]int, len(opts))
	for i := range out {
		out[i] = i
	}
	sort.SliceStable(out, func(a, b int) bool { return opts[out[a]].Gain > opts[out[b]].Gain })
	return out
}

// PlanGain sums the expected gain of a plan.
func PlanGain(plan []*Option) float64 {
	var g float64
	for _, o := range plan {
		g += o.Gain
	}
	return g
}
