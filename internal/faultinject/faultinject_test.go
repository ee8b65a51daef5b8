package faultinject

import (
	"testing"
	"time"
)

func TestScriptReplaysInOrder(t *testing.T) {
	s := NewScript()
	s.Queue(PointDeploy, Decision{Fail: true}, Decision{Silent: true})
	s.Queue(PointCounters, Decision{Zero: true})

	if d := s.At(PointDeploy); !d.Fail {
		t.Errorf("first deploy decision = %+v, want Fail", d)
	}
	if d := s.At(PointDeploy); !d.Silent {
		t.Errorf("second deploy decision = %+v, want Silent", d)
	}
	if d := s.At(PointDeploy); !d.None() {
		t.Errorf("drained queue injected %+v", d)
	}
	if d := s.At(PointCounters); !d.Zero {
		t.Errorf("counters decision = %+v, want Zero", d)
	}
	if got := s.Pending(PointDeploy); got != 0 {
		t.Errorf("Pending(deploy) = %d, want 0", got)
	}
}

func TestNilInjectorIsNoop(t *testing.T) {
	if d := At(nil, PointDeploy); !d.None() {
		t.Errorf("nil injector returned %+v", d)
	}
}

func TestRandomDeterministicBySeed(t *testing.T) {
	probs := map[Point]Prob{
		PointDeploy:    {Fail: 0.3, Silent: 0.2},
		PointConnWrite: {Drop: 0.5},
	}
	a := newRandom(42, probs)
	b := newRandom(42, probs)
	fired := 0
	for i := 0; i < 200; i++ {
		p := PointDeploy
		if i%2 == 1 {
			p = PointConnWrite
		}
		da, db := a.At(p), b.At(p)
		if da != db {
			t.Fatalf("draw %d diverged: %+v vs %+v", i, da, db)
		}
		if p == PointDeploy && !da.None() {
			fired++
		}
	}
	if fired == 0 {
		t.Error("faults with 0.5 total probability never fired in 100 draws")
	}
}

func TestRandomRespectsZeroProbability(t *testing.T) {
	r := newRandom(7, map[Point]Prob{PointDeploy: {}})
	for i := 0; i < 100; i++ {
		if d := r.At(PointDeploy); !d.None() {
			t.Fatalf("zero-probability point injected %+v", d)
		}
	}
	if d := r.At(PointPlan); !d.None() {
		t.Errorf("unconfigured point injected %+v", d)
	}
}

func TestParseSpec(t *testing.T) {
	inj, err := ParseSpec("deploy.fail=1,conn.write.drop=0.5,plan.scale=1:20,conn.read.delay=1:5ms,counters.zero=1", 9)
	if err != nil {
		t.Fatal(err)
	}
	if d := inj.At(PointDeploy); !d.Fail {
		t.Errorf("deploy.fail=1 did not fire: %+v", d)
	}
	if d := inj.At(PointPlan); d.Scale != 20 {
		t.Errorf("plan.scale factor = %v, want 20", d.Scale)
	}
	if d := inj.At(PointConnRead); d.Delay != 5*time.Millisecond {
		t.Errorf("conn.read delay = %v, want 5ms", d.Delay)
	}
	if d := inj.At(PointCounters); !d.Zero {
		t.Errorf("counters.zero=1 did not fire: %+v", d)
	}
}

func TestParseSpecEmptyAndInvalid(t *testing.T) {
	if inj, err := ParseSpec("", 1); err != nil || inj != nil {
		t.Errorf("empty spec = (%v, %v), want (nil, nil)", inj, err)
	}
	for _, bad := range []string{
		"deploy=0.5",          // no mode
		"nowhere.fail=0.5",    // unknown point
		"deploy.explode=0.5",  // unknown mode
		"deploy.fail=2",       // probability out of range
		"plan.scale=0.5",      // missing factor
		"conn.read.delay=0.5", // missing duration
	} {
		if _, err := ParseSpec(bad, 1); err == nil {
			t.Errorf("spec %q should be rejected", bad)
		}
	}
}
