package core

import (
	"testing"
	"time"

	"pipeleon/internal/opt"
	"pipeleon/internal/trafficgen"
)

// Change-triggered optimization (§2.3): steady traffic must not re-run the
// search every window; a traffic change must.
func TestRuntimeSkipsUnchangedProfiles(t *testing.T) {
	prog := aclProgram(t)
	cfg := opt.DefaultConfig()
	cfg.TopKFrac = 1
	rt, nic, _ := newRig(t, prog, cfg)
	rt.changeThreshold = 0.1

	gen := trafficgen.New(1, 0)
	gen.AddFlows(trafficgen.DropTargetedFlows(2, 2000, "tcp.dport", 23, 0.8)...)

	// Round 1 always searches (no baseline costs yet).
	drive(nic, gen, 3000)
	rep1, err := rt.OptimizeOnce(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.SkippedUnchanged {
		t.Fatal("first round must not be skipped")
	}
	// Rounds 2-4 with statistically identical traffic: skipped.
	skipped := 0
	for i := 0; i < 3; i++ {
		drive(nic, gen, 3000)
		rep, err := rt.OptimizeOnce(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if rep.SkippedUnchanged {
			skipped++
		}
	}
	if skipped < 2 {
		t.Errorf("steady traffic: %d/3 rounds skipped, want >=2", skipped)
	}

	// A drop-pattern flip must trigger a fresh search.
	gen2 := trafficgen.New(3, 0)
	gen2.AddFlows(trafficgen.DropTargetedFlows(4, 2000, "tcp.sport", 1111, 0.8)...)
	drive(nic, gen2, 3000)
	rep, err := rt.OptimizeOnce(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SkippedUnchanged {
		t.Error("traffic change must trigger a new round")
	}
}

func TestCostsChanged(t *testing.T) {
	old := map[string]float64{"a": 100, "b": 50}
	if costsChanged(old, map[string]float64{"a": 104, "b": 51}, 0.1) {
		t.Error("4% move should be below a 10% threshold")
	}
	if !costsChanged(old, map[string]float64{"a": 150, "b": 50}, 0.1) {
		t.Error("50% move must trigger")
	}
	if !costsChanged(old, map[string]float64{"a": 100, "b": 50, "c": 10}, 0.1) {
		t.Error("new pipelet must trigger")
	}
	if !costsChanged(old, map[string]float64{"a": 100}, 0.1) {
		t.Error("disappearing pipelet must trigger")
	}
	if costsChanged(old, old, 0.1) {
		t.Error("identical costs must not trigger")
	}
}
