package core

import (
	"encoding/json"
	"testing"
	"time"

	"pipeleon/internal/faultinject"
)

// TestStatusAggregatesHistory drives the runtime through a healthy
// deploy, two injected deploy failures (opening the breaker), and the
// breaker cooldown, and checks the machine-readable status matches the
// per-round reports at each step — the aggregation fleetd relies on.
func TestStatusAggregatesHistory(t *testing.T) {
	script := faultinject.NewScript()
	rt, nic, gen := newFaultRig(t, script)
	guard := DeployGuard{BreakerThreshold: 2, BreakerCooldownRounds: 2}
	rt.SetDeployGuard(guard)

	if st := rt.Status(); st.Round != 0 || st.Deploys != 0 || st.BreakerOpen {
		t.Fatalf("fresh runtime status not zero: %+v", st)
	}

	// Rounds 1-2: injected deploy failures open the breaker.
	script.Queue(faultinject.PointDeploy, faultinject.Decision{Fail: true}, faultinject.Decision{Fail: true})
	for i := 0; i < 2; i++ {
		drive(nic, gen, 3000)
		if _, err := rt.OptimizeOnce(time.Second); err == nil {
			t.Fatalf("round %d: expected injected deploy failure", i+1)
		}
	}
	st := rt.Status()
	if st.DeployErrors != 2 {
		t.Errorf("DeployErrors = %d, want 2: %+v", st.DeployErrors, st)
	}
	if !st.BreakerOpen {
		t.Errorf("breaker should be open after %d failures: %+v", guard.BreakerThreshold, st)
	}
	if st.LastError == "" {
		t.Errorf("LastError empty after injected failures: %+v", st)
	}

	// Cooldown rounds are counted and the breaker closes afterwards.
	for i := 0; i < 2; i++ {
		drive(nic, gen, 3000)
		if _, err := rt.OptimizeOnce(time.Second); err != nil {
			t.Fatal(err)
		}
	}
	st = rt.Status()
	if st.BreakerOpenRounds != 2 {
		t.Errorf("BreakerOpenRounds = %d, want 2: %+v", st.BreakerOpenRounds, st)
	}
	if st.BreakerOpen {
		t.Errorf("breaker still open after cooldown: %+v", st)
	}

	// Post-cooldown round: a clean deploy clears LastError.
	drive(nic, gen, 3000)
	if rep, err := rt.OptimizeOnce(time.Second); err != nil || !rep.Deployed {
		t.Fatalf("post-cooldown round should deploy: rep=%+v err=%v", rep, err)
	}
	st = rt.Status()
	if st.Deploys != 1 || st.LastError != "" {
		t.Errorf("after recovery: Deploys=%d LastError=%q, want 1/\"\": %+v", st.Deploys, st.LastError, st)
	}

	// The status round-trips as JSON (it crosses the OpStats wire).
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back RuntimeStatus
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != st {
		t.Errorf("status did not round-trip: %+v != %+v", back, st)
	}
}

// TestStatusCountsRollbacks checks rolled-back deploys are aggregated and
// blacklisted plans are visible while live.
func TestStatusCountsRollbacks(t *testing.T) {
	script := faultinject.NewScript()
	script.Queue(faultinject.PointPlan, faultinject.Decision{Scale: 50})
	rt, nic, gen := newFaultRig(t, script)
	guard := DefaultDeployGuard(gen.Batch)
	guard.MinRealizedGainFrac = 0.5
	guard.BlacklistRounds = 1
	rt.SetDeployGuard(guard)

	drive(nic, gen, 3000)
	rep, err := rt.OptimizeOnce(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.RolledBack {
		t.Fatalf("expected rollback: %+v", rep)
	}
	st := rt.Status()
	if st.RolledBack != 1 || st.Deploys != 1 {
		t.Errorf("RolledBack=%d Deploys=%d, want 1/1: %+v", st.RolledBack, st.Deploys, st)
	}
	if st.BlacklistedPlans != 1 {
		t.Errorf("BlacklistedPlans = %d, want 1: %+v", st.BlacklistedPlans, st)
	}
	if st.ConsecutiveFailures != 1 {
		t.Errorf("ConsecutiveFailures = %d, want 1: %+v", st.ConsecutiveFailures, st)
	}
}
