package experiments

import (
	"reflect"
	"strings"
	"testing"
)

// The experiment suite's tests assert the SHAPE claims of each paper
// figure — who wins, roughly by how much, where crossovers fall — in quick
// mode. Absolute values belong to EXPERIMENTS.md, not assertions.

var quick = RunOpts{Quick: true, Seed: 42}

func series(t *testing.T, r *Result, name string) []float64 {
	t.Helper()
	for _, s := range r.Series {
		if s.Name == name {
			return s.Y
		}
	}
	t.Fatalf("%s: series %q missing (have %v)", r.ID, name, seriesNames(r))
	return nil
}

func seriesNames(r *Result) []string {
	var out []string
	for _, s := range r.Series {
		out = append(out, s.Name)
	}
	return out
}

func mean(ys []float64) float64 {
	var sum float64
	for _, y := range ys {
		sum += y
	}
	return sum / float64(len(ys))
}

func TestFig2DynamicBeatsStaticAfterChange(t *testing.T) {
	r := Fig2(quick)
	dyn := series(t, r, "dynamic-acl-order")
	stat := series(t, r, "static-acl-order")
	if len(dyn) != len(stat) || len(dyn) < 10 {
		t.Fatalf("series lengths %d/%d", len(dyn), len(stat))
	}
	// Steady-state windows (skip two adaptation windows per phase).
	for _, i := range []int{4, 6, 8, len(dyn) - 3, len(dyn) - 1} {
		if dyn[i] <= stat[i]+5 {
			t.Errorf("t=%v: dynamic %.1f should clearly beat static %.1f", r.Series[0].X[i], dyn[i], stat[i])
		}
	}
	// Dynamic recovers to (near) line rate.
	if dyn[len(dyn)-1] < 95 {
		t.Errorf("dynamic should end near line rate, got %.1f", dyn[len(dyn)-1])
	}
}

func TestFig5ModelWithinBand(t *testing.T) {
	for _, f := range []func(RunOpts) *Result{Fig5a, Fig5b, Fig5c, Fig5d} {
		r := f(quick)
		model := series(t, r, "cost-model")
		for i, v := range model {
			if v < 0.85 || v > 1.20 {
				t.Errorf("%s point %d: model/measurement ratio %.3f outside [0.85, 1.20]", r.ID, i, v)
			}
		}
	}
}

// The flows fig5, fig9, fig11 and fig12 draw are a function of the
// program and the seed: a draw picks from each field's candidate values,
// which once followed map order, so one process drew different flows from
// one program call after call and two runs of one build printed different
// figures.
func TestHitMissFlowsReproducible(t *testing.T) {
	prog := dashProgram()
	first := hitMissFlows(prog, 7, 200, 0.85)
	for i := 0; i < 10; i++ {
		if again := hitMissFlows(prog, 7, 200, 0.85); !reflect.DeepEqual(again, first) {
			t.Fatalf("call %d drew other flows from the same program and seed", i+2)
		}
	}
}

func TestFig9aReorderingMonotoneAndOrdered(t *testing.T) {
	r := Fig9a(quick)
	// The series run back-to-front (positions 21 → 0), so throughput
	// should rise along each series as the ACL moves forward.
	for _, name := range []string{"drop-25%", "drop-50%", "drop-75%"} {
		ys := series(t, r, name)
		for i := 1; i < len(ys); i++ {
			if ys[i] < ys[i-1]-2 {
				t.Errorf("%s: throughput should rise toward the front: %v", name, ys)
				break
			}
		}
	}
	d25 := series(t, r, "drop-25%")
	d75 := series(t, r, "drop-75%")
	// Front position (last element): higher drop rates gain more.
	if d75[len(d75)-1] < d25[len(d25)-1] {
		t.Errorf("front position: drop-75 (%.1f) should be >= drop-25 (%.1f)",
			d75[len(d75)-1], d25[len(d25)-1])
	}
	// Back position (first element): drop rate barely matters.
	if d75[0]-d25[0] > 8 {
		t.Error("at the very back, drop rate should barely matter")
	}
}

func TestFig9cCachingShape(t *testing.T) {
	r := Fig9c(quick)
	bf := series(t, r, "bluefield2")
	if len(bf) != 5 {
		t.Fatalf("want 5 options, got %d", len(bf))
	}
	noCache, per, three, all := bf[0], bf[1], bf[3], bf[4]
	if per < noCache*2 {
		t.Errorf("per-table caches should beat no-cache by >2x: %.1f vs %.1f (paper: 2.5x)", per, noCache)
	}
	if three <= per {
		t.Errorf("[1,2,3][4] (%.1f) should beat [1][2][3][4] (%.1f): fewer probes", three, per)
	}
	if all >= three {
		t.Errorf("[1,2,3,4] (%.1f) must regress vs [1,2,3][4] (%.1f): cross-product working set", all, three)
	}
}

func TestFig9dMergingMonotone(t *testing.T) {
	r := Fig9d(quick)
	for _, tgt := range []string{"bluefield2", "agiliocx"} {
		ys := series(t, r, tgt)
		for i := 1; i < len(ys); i++ {
			if ys[i] < ys[i-1]-1 {
				t.Errorf("%s: merging more tables should not slow down: %v", tgt, ys)
			}
		}
		if ys[3] < ys[0]*1.2 {
			t.Errorf("%s: merge-4 should improve by >=1.2x (paper 1.2-2.1x): %v", tgt, ys)
		}
	}
}

func TestFig10AllCategoriesImprove(t *testing.T) {
	r := Fig10(quick)
	if len(r.Series) != 3 {
		t.Fatalf("want 3 category series, got %v", seriesNames(r))
	}
	for _, s := range r.Series {
		for i, y := range s.Y {
			if y <= 5 {
				t.Errorf("%s PL-group %d: latency reduction %.1f%%, want clearly positive", s.Name, i, y)
			}
		}
		// Longer pipelets should improve at least as much as the
		// shortest group.
		if s.Y[len(s.Y)-1] < s.Y[0]*0.8 {
			t.Errorf("%s: longer pipelets should not reduce benefit much: %v", s.Name, s.Y)
		}
	}
}

func TestFig11aPipeleonSurvivesBurstAndDropChange(t *testing.T) {
	r := Fig11a(quick)
	dyn := series(t, r, "pipeleon")
	base := series(t, r, "baseline-whole-cache")
	xs := r.Series[0].X
	// During the insertion burst (16<=t<32) the baseline must collapse
	// while Pipeleon, after adapting, recovers.
	var burstBase, burstDynLate, tailDyn, tailBase float64
	var nb, nd, ntd, ntb int
	for i, x := range xs {
		if x >= 16 && x < 32 {
			burstBase += base[i]
			nb++
			if x >= 26 {
				burstDynLate += dyn[i]
				nd++
			}
		}
		if x >= 40 {
			tailDyn += dyn[i]
			ntd++
			tailBase += base[i]
			ntb++
		}
	}
	if burstBase/float64(nb) > 70 {
		t.Errorf("baseline should collapse during the burst, got %.1f", burstBase/float64(nb))
	}
	if burstDynLate/float64(nd) < 80 {
		t.Errorf("pipeleon should recover within the burst, got %.1f", burstDynLate/float64(nd))
	}
	if tailDyn/float64(ntd) < tailBase/float64(ntb)+30 {
		t.Errorf("after the drop change pipeleon (%.1f) should clearly beat baseline (%.1f)",
			tailDyn/float64(ntd), tailBase/float64(ntb))
	}
}

func TestFig11cAdaptationReducesLatency(t *testing.T) {
	r := Fig11c(quick)
	dyn := series(t, r, "pipeleon")
	base := series(t, r, "baseline")
	if mean(dyn) >= mean(base)*0.85 {
		t.Errorf("pipeleon mean latency %.1f should be <85%% of baseline %.1f", mean(dyn), mean(base))
	}
}

func TestFig12OverheadShapes(t *testing.T) {
	a := Fig12a(quick)
	simple := series(t, a, "simple-action")
	sampled := series(t, a, "simple-action-sampling-1/1024")
	// Overhead grows with counter count.
	if !(simple[len(simple)-1] > simple[0]) {
		t.Errorf("latency overhead should grow with counters: %v", simple)
	}
	// Sampling cuts it dramatically.
	for i := range simple {
		if sampled[i] > simple[i]/2 {
			t.Errorf("sampling should cut overhead at point %d: %v vs %v", i, sampled[i], simple[i])
		}
	}
	c := Fig12c(quick)
	for _, s := range c.Series {
		for _, y := range s.Y {
			if y > 3 {
				t.Errorf("BlueField2 overhead should stay ~2%% (paper), got %.1f%%", y)
			}
		}
	}
}

func TestFig13TopKFasterThanESearch(t *testing.T) {
	r := Fig13(quick)
	// For each group, median (X=50) of k=20% must beat k=100%.
	for _, g := range []string{"PN12-PL2", "PN13-PL3", "PN15-PL3"} {
		k20 := series(t, r, g+"-k20%")
		k100 := series(t, r, g+"-k100%")
		// X = [10 25 50 75 90]; index 2 = median.
		if k20[2] >= k100[2] {
			t.Errorf("%s: top-20%% median %.2fms should beat ESearch %.2fms", g, k20[2], k100[2])
		}
	}
}

func TestFig14RatiosRiseWithK(t *testing.T) {
	r := Fig14(quick)
	for _, s := range r.Series {
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] < s.Y[i-1]-0.05 {
				t.Errorf("%s: gain ratio should rise with k: %v", s.Name, s.Y)
			}
		}
		if s.Y[0] < 0.4 {
			t.Errorf("%s: even k=20%% should capture a large share: %v", s.Name, s.Y)
		}
		if s.Y[len(s.Y)-1] < 0.75 {
			t.Errorf("%s: k=50%% should capture most of ESearch: %v", s.Name, s.Y)
		}
	}
}

func TestFig15GroupsNeverHurt(t *testing.T) {
	r := Fig15(quick)
	w := series(t, r, "with-groups")
	wo := series(t, r, "without-groups")
	for i := range w {
		if w[i] < wo[i]-1e-6 {
			t.Errorf("k=%v: groups made things worse: %.2f < %.2f", r.Series[0].X[i], w[i], wo[i])
		}
	}
}

func TestFig17CopyingShapes(t *testing.T) {
	a := Fig17a(quick)
	for _, s := range a.Series {
		if s.Y[len(s.Y)-1] >= s.Y[0] {
			t.Errorf("%s: copying all tables should reduce latency: %v", s.Name, s.Y)
		}
	}
	// Larger migration latency → larger total saving.
	lo := series(t, a, "migration-200ns")
	hi := series(t, a, "migration-800ns")
	if (hi[0] - hi[4]) <= (lo[0] - lo[4]) {
		t.Error("saving should grow with migration latency")
	}
	bb := Fig17b(quick)
	s30 := series(t, bb, "software-30%")
	s70 := series(t, bb, "software-70%")
	if (s70[0] - s70[4]) <= (s30[0] - s30[4]) {
		t.Error("saving should grow with software traffic share")
	}
}

func TestFig18DistributionsNormalized(t *testing.T) {
	r := Fig18(quick)
	for _, s := range r.Series {
		var sum float64
		for _, y := range s.Y {
			sum += y
		}
		if sum < 0.95 || sum > 1.05 {
			t.Errorf("%s: distribution sums to %.3f", s.Name, sum)
		}
	}
}

func TestFig19ImprovementsPositive(t *testing.T) {
	r := Fig19(quick)
	for _, s := range r.Series {
		for _, y := range s.Y {
			if y < 1.0 {
				t.Errorf("%s: ESearch should never make latency worse: %v", s.Name, s.Y)
			}
		}
	}
}

func TestAllRunnersSmoke(t *testing.T) {
	// Every registered figure must run and render without panicking,
	// with at least one series (registry completeness).
	for _, r := range All() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			res := r.Run(quick)
			if res.ID != r.ID {
				t.Errorf("result id %q != runner id %q", res.ID, r.ID)
			}
			if len(res.Series) == 0 {
				t.Error("no series produced")
			}
			var sb strings.Builder
			res.Render(&sb)
			if !strings.Contains(sb.String(), r.ID) {
				t.Error("render missing figure id")
			}
		})
	}
}

func TestFindRegistry(t *testing.T) {
	if Find("fig9a") == nil || Find("nope") != nil {
		t.Error("Find misbehaves")
	}
	if len(All()) != 24 {
		t.Errorf("registry has %d figures, want 24", len(All()))
	}
}

func TestFig20EachTierWinsARegion(t *testing.T) {
	r := Fig20(quick)
	// Collect the set of winning tiers across the whole grid: the map is
	// only interesting if all three tiers claim some region.
	won := map[float64]bool{}
	for _, s := range r.Series {
		if strings.HasPrefix(s.Name, "updates-") {
			for _, y := range s.Y {
				won[y] = true
			}
		}
	}
	for tier := 0.0; tier < 3; tier++ {
		if !won[tier] {
			t.Errorf("tier %.0f never wins a grid region (winners: %v)", tier, won)
		}
	}
	// No churn → the ASIC wins at every locality.
	for i, y := range series(t, r, "updates-0/s") {
		if y != 0 {
			t.Errorf("updates-0/s point %d: want ASIC (0), got tier %.0f", i, y)
		}
	}
	// Heavy churn → off-path wins once DMA batches deepen, and the
	// sparse-traffic end stays on-path.
	heavy := series(t, r, "updates-1000000/s")
	if heavy[0] == 2 {
		t.Errorf("heavy churn at locality 0 should stay on-path, got off-path")
	}
	if heavy[len(heavy)-1] != 2 {
		t.Errorf("heavy churn at locality 1 should go off-path, got tier %.0f", heavy[len(heavy)-1])
	}
	// Measured spot-check: at full locality with no churn the emulator
	// must rank the ASIC fastest and the off-path tier ahead of the NIC
	// CPU — the same ordering the model predicts.
	meas := series(t, r, "measured-ns-by-tier@loc=1")
	if len(meas) != 3 {
		t.Fatalf("measured series has %d points, want 3", len(meas))
	}
	if !(meas[0] < meas[2] && meas[2] < meas[1]) {
		t.Errorf("measured ordering want asic < offpath < nic-cpu, got %v", meas)
	}
}

func TestResultRenderAlignment(t *testing.T) {
	res := &Result{ID: "x", Title: "t", XLabel: "x", YLabel: "y"}
	res.AddSeries("a", []float64{1, 2}, []float64{10, 20})
	res.AddSeries("b", []float64{2, 3}, []float64{30, 40})
	var sb strings.Builder
	res.Render(&sb)
	out := sb.String()
	for _, want := range []string{"x", "a", "b", "10", "20", "30", "40"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
