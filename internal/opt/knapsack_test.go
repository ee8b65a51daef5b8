package opt

import (
	"math"
	"testing"

	"pipeleon/internal/stats"
)

func opt1(gain float64, mem int, upd float64) *Option {
	return &Option{Kind: OptPipelet, Gain: gain, MemCost: mem, UpdateCost: upd}
}

func TestGlobalOptimizeUnconstrainedPicksArgmax(t *testing.T) {
	units := []Unit{
		{Name: "p1", Options: []*Option{opt1(5, 100, 0), opt1(9, 1e6, 1e6)}},
		{Name: "p2", Options: []*Option{opt1(-1, 0, 0)}},
		{Name: "p3", Options: []*Option{opt1(3, 50, 10)}},
	}
	plan := GlobalOptimize(units, 0, 0, DefaultConfig())
	if len(plan) != 2 {
		t.Fatalf("plan size %d, want 2 (negative-gain unit skipped)", len(plan))
	}
	if PlanGain(plan) != 12 {
		t.Errorf("gain = %v, want 12", PlanGain(plan))
	}
}

func TestGlobalOptimizeMemoryConstraint(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemBuckets = 10
	// Budget 100 bytes: each option costs 60 → only one fits.
	units := []Unit{
		{Name: "p1", Options: []*Option{opt1(10, 60, 0)}},
		{Name: "p2", Options: []*Option{opt1(8, 60, 0)}},
	}
	plan := GlobalOptimize(units, 100, 0, cfg)
	mem, _ := planCosts(plan)
	if mem > 100 {
		t.Errorf("plan exceeds memory budget: %d", mem)
	}
	if math.Abs(PlanGain(plan)-10) > 1e-9 {
		t.Errorf("should pick the higher-gain option alone, got %v", PlanGain(plan))
	}
}

func TestGlobalOptimizePrefersComboUnderBudget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemBuckets = 100
	// Budget 100: p1 has a big expensive option (gain 10, 100B) and a
	// cheap one (gain 6, 40B); p2 cheap (gain 5, 40B). Best = 6+5.
	units := []Unit{
		{Name: "p1", Options: []*Option{opt1(10, 100, 0), opt1(6, 40, 0)}},
		{Name: "p2", Options: []*Option{opt1(5, 40, 0)}},
	}
	plan := GlobalOptimize(units, 100, 0, cfg)
	if math.Abs(PlanGain(plan)-11) > 1e-9 {
		t.Errorf("gain = %v, want 11 (combo beats single big option)", PlanGain(plan))
	}
}

func TestGlobalOptimizeUpdateConstraint(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UpdBuckets = 10
	units := []Unit{
		{Name: "p1", Options: []*Option{opt1(10, 0, 900)}},
		{Name: "p2", Options: []*Option{opt1(9, 0, 900)}},
	}
	plan := GlobalOptimize(units, 0, 1000, cfg)
	_, upd := planCosts(plan)
	if upd > 1000 {
		t.Errorf("plan exceeds update budget: %v", upd)
	}
	if math.Abs(PlanGain(plan)-10) > 1e-9 {
		t.Errorf("gain = %v, want 10", PlanGain(plan))
	}
}

func TestGlobalOptimizeAtMostOnePerUnit(t *testing.T) {
	cfg := DefaultConfig()
	units := []Unit{
		{Name: "p1", Options: []*Option{opt1(5, 10, 0), opt1(4, 10, 0), opt1(3, 10, 0)}},
	}
	plan := GlobalOptimize(units, 1000, 0, cfg)
	if len(plan) != 1 {
		t.Fatalf("plan has %d options from one unit, want 1", len(plan))
	}
	if plan[0].Gain != 5 {
		t.Errorf("picked gain %v, want 5", plan[0].Gain)
	}
}

func TestGlobalOptimizeNeverExceedsBudgets(t *testing.T) {
	// Randomized stress: plans must respect both budgets exactly.
	rng := stats.NewRNG(77)
	cfg := DefaultConfig()
	cfg.MemBuckets, cfg.UpdBuckets = 32, 16
	for trial := 0; trial < 30; trial++ {
		var units []Unit
		n := 1 + rng.Intn(8)
		for i := 0; i < n; i++ {
			var opts []*Option
			for j := rng.Intn(5); j >= 0; j-- {
				opts = append(opts, opt1(rng.Float64()*100, rng.Intn(500), rng.Float64()*200))
			}
			units = append(units, Unit{Name: "u", Options: opts})
		}
		mb := 200 + rng.Intn(800)
		ub := 100 + rng.Float64()*300
		plan := GlobalOptimize(units, mb, ub, cfg)
		mem, upd := planCosts(plan)
		if mem > mb {
			t.Fatalf("trial %d: mem %d > budget %d", trial, mem, mb)
		}
		if upd > ub+1e-9 {
			t.Fatalf("trial %d: upd %v > budget %v", trial, upd, ub)
		}
		// Sanity vs brute force on small instances.
		if n <= 4 {
			best := bruteForce(units, mb, ub)
			if PlanGain(plan) > best+1e-6 {
				t.Fatalf("trial %d: DP gain %v exceeds true optimum %v", trial, PlanGain(plan), best)
			}
			// Discretization rounds costs up, so DP may be slightly
			// below optimal but should be within the bucket slack.
			if PlanGain(plan) < best*0.5-1e-9 {
				t.Fatalf("trial %d: DP gain %v too far below optimum %v", trial, PlanGain(plan), best)
			}
		}
	}
}

// bruteForce enumerates all unit choices exactly.
func bruteForce(units []Unit, mb int, ub float64) float64 {
	best := 0.0
	var rec func(i int, gain float64, mem int, upd float64)
	rec = func(i int, gain float64, mem int, upd float64) {
		if mem > mb || upd > ub {
			return
		}
		if gain > best {
			best = gain
		}
		if i == len(units) {
			return
		}
		rec(i+1, gain, mem, upd) // skip unit
		for _, o := range units[i].Options {
			rec(i+1, gain+o.Gain, mem+o.MemCost, upd+o.UpdateCost)
		}
	}
	rec(0, 0, 0, 0)
	return best
}

func TestPlanCosts(t *testing.T) {
	plan := []*Option{opt1(1, 10, 5), opt1(2, 20, 7)}
	mem, upd := planCosts(plan)
	if mem != 30 || upd != 12 {
		t.Errorf("planCosts = %d, %v", mem, upd)
	}
}

// planCosts sums the resource costs of a plan.
func planCosts(plan []*Option) (mem int, upd float64) {
	for _, o := range plan {
		mem += o.MemCost
		upd += o.UpdateCost
	}
	return mem, upd
}
