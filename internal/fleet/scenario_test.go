package fleet_test

import (
	"fmt"
	"testing"

	"pipeleon/internal/faultinject"
	"pipeleon/internal/fleet"
	"pipeleon/internal/p4ir"
)

// TestFleetFaultScenario drives the fleet acceptance drill end to end on
// eight in-process emulator devices, each a target.WithFaults with its own
// fault script. It pins the fleet's failure-handling contract:
//
//	Phase 1 — canary gate: the canary's verification window is scripted
//	  to show a 10× latency regression; the rollout must halt with ZERO
//	  fan-out and the canary rolled back.
//	Phase 2 — mid-wave breach: one device crashes on deploy and another
//	  regresses on verify inside the third wave; the cumulative failure
//	  ratio (2/7) breaches the 25% threshold, so the rollout halts and
//	  every already-committed device is rolled back to the old program.
//	Phase 3 — breaker quarantine + graceful degradation: the same two
//	  devices fail a second rollout, tripping the deploy breaker; both
//	  are quarantined, and the rollout completes on the remaining six.
//	Phase 4 — probation re-admission: faults cleared, the quarantined
//	  devices serve their sit-out, pass probation, rejoin, and a final
//	  rollout converges all eight devices.
func TestFleetFaultScenario(t *testing.T) {
	prog, next := aclProgram(t), altProgram(t)
	devs := make([]member, 0, 8)
	for i := 0; i < 8; i++ {
		devs = append(devs, newMember(t, fmt.Sprintf("nic%d", i), prog))
	}
	const crasher, flapper = 3, 5

	// Tightened thresholds, so each phase needs a deterministic, small
	// number of probe rounds.
	pol := fleet.DefaultHealthPolicy()
	pol.DegradedAfter = 1
	pol.QuarantineAfter = 2
	pol.BreakerThreshold = 2
	pol.QuarantineProbes = 1
	pol.ProbationProbes = 2
	pol.MaxProbeBackoff = 1
	pol.RestartBudget = 2
	ctl := fleet.NewWithPolicy(fleet.Options{Logf: t.Logf}, pol)
	for _, m := range devs {
		if err := ctl.Add(m.Name, m.Target); err != nil {
			t.Fatal(err)
		}
	}
	cfg := fleet.RolloutConfig{
		Canary:         1,
		FirstWave:      2,
		MaxFailureFrac: 0.25,
		// Loose allowance: only the scripted 10× regressions trip it.
		Verify: fleet.VerifyConfig{Sampler: lockedSampler(dropTraffic()), Packets: 128, MaxRegression: 1.0},
	}
	digest := func(i int) p4ir.Digest {
		d, err := devs[i].Target.Digest()
		if err != nil {
			t.Fatalf("device %s: %v", devs[i].Name, err)
		}
		return d
	}
	nextDigest, oldDigest := next.Digest(), digest(0)
	if oldDigest == nextDigest {
		t.Fatalf("devices must start on a program other than the rollout's (%x)", oldDigest[:8])
	}
	onProgram := func(phase string, want p4ir.Digest, names ...int) {
		t.Helper()
		for _, i := range names {
			if got := digest(i); got != want {
				t.Fatalf("%s: device %s runs %x, want %x", phase, devs[i].Name, got[:8], want[:8])
			}
		}
	}
	wantState := func(phase string, i int, want fleet.State) {
		t.Helper()
		st, err := ctl.DeviceState(devs[i].Name)
		if err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		if st != want {
			t.Fatalf("%s: device %s state = %s, want %s", phase, devs[i].Name, st, want)
		}
	}
	all := []int{0, 1, 2, 3, 4, 5, 6, 7}
	// A verified deploy measures four times (core.CompareDeploy: warm pass
	// and baseline, deploy, warm pass and post); scaling the last one is a
	// deploy that regressed the device.
	regressOnVerify := []faultinject.Decision{{}, {}, {}, {Scale: 10}}

	ctl.ProbeAll()
	st := ctl.Status()
	if st.Healthy != 8 {
		t.Fatalf("after initial probes: %d healthy, want 8", st.Healthy)
	}

	// ---- Phase 1: canary gate -------------------------------------------
	t.Log("phase 1: canary verification failure must stop fan-out")
	devs[0].Script.Queue(faultinject.PointMeasure, regressOnVerify...)
	rep, err := ctl.Rollout(next, cfg)
	if err != nil {
		t.Fatalf("phase 1 rollout: %v", err)
	}
	if !rep.Halted || rep.Attempted != 1 || len(rep.Results) != 1 {
		t.Fatalf("phase 1: want halt after 1 canary attempt, got halted=%v attempted=%d results=%d (%s)",
			rep.Halted, rep.Attempted, len(rep.Results), rep.HaltReason)
	}
	if rep.RolledBack {
		t.Fatalf("phase 1: nothing was committed, fleet rollback must not run")
	}
	onProgram("phase 1", oldDigest, all...)
	ctl.ProbeAll() // healthy probe lifts the canary's Degraded mark
	wantState("phase 1", 0, fleet.Healthy)

	// ---- Phase 2: mid-wave breach → halt + rollback ---------------------
	t.Log("phase 2: ratio breach mid-wave must roll back committed devices")
	devs[crasher].Script.Queue(faultinject.PointDeploy, faultinject.Decision{Fail: true})
	devs[flapper].Script.Queue(faultinject.PointMeasure, regressOnVerify...)
	rep, err = ctl.Rollout(next, cfg)
	if err != nil {
		t.Fatalf("phase 2 rollout: %v", err)
	}
	if !rep.Halted || !rep.RolledBack {
		t.Fatalf("phase 2: want halt+rollback, got halted=%v rolledback=%v (%s)",
			rep.Halted, rep.RolledBack, rep.HaltReason)
	}
	if rep.Attempted != 7 || rep.Failed != 2 {
		t.Fatalf("phase 2: attempted=%d failed=%d, want 7/2", rep.Attempted, rep.Failed)
	}
	if len(rep.Committed) != 0 || len(rep.RollbackErrors) != 0 {
		t.Fatalf("phase 2: committed=%v rollbackErrors=%v, want none", rep.Committed, rep.RollbackErrors)
	}
	onProgram("phase 2: fleet rollback incomplete", oldDigest, all...)

	// ---- Phase 3: breaker quarantine + graceful degradation -------------
	t.Log("phase 3: repeat offenders trip the breaker; fleet degrades gracefully")
	devs[crasher].Script.Queue(faultinject.PointDeploy, faultinject.Decision{Fail: true})
	devs[flapper].Script.Queue(faultinject.PointMeasure, regressOnVerify...)
	rep, err = ctl.Rollout(next, cfg)
	if err != nil {
		t.Fatalf("phase 3 rollout: %v", err)
	}
	if rep.Halted {
		t.Fatalf("phase 3: rollout halted (%s); 2/8 failures must not breach 25%%", rep.HaltReason)
	}
	if len(rep.Committed) != 6 {
		t.Fatalf("phase 3: committed=%v, want the 6 working devices", rep.Committed)
	}
	wantState("phase 3", crasher, fleet.Quarantined)
	wantState("phase 3", flapper, fleet.Quarantined)
	onProgram("phase 3", nextDigest, 0, 1, 2, 4, 6, 7)
	onProgram("phase 3", oldDigest, crasher, flapper)
	st = ctl.Status()
	if st.Serving != 6 || st.Quarantined != 2 {
		t.Fatalf("phase 3: serving=%d quarantined=%d, want 6/2", st.Serving, st.Quarantined)
	}

	// Quarantined devices are excluded from the next rollout entirely.
	rep, err = ctl.Rollout(next, cfg)
	if err != nil {
		t.Fatalf("phase 3 convergence rollout: %v", err)
	}
	if rep.Attempted != 0 || len(rep.Committed) != 6 || len(rep.Skipped) != 2 {
		t.Fatalf("phase 3: converged fleet should skip deploys: attempted=%d committed=%d skipped=%v",
			rep.Attempted, len(rep.Committed), rep.Skipped)
	}

	// ---- Phase 4: probation and re-admission ----------------------------
	t.Log("phase 4: quarantine expires, probation passes, fleet reconverges")
	for _, i := range []int{crasher, flapper} {
		if p := devs[i].Script.Pending(faultinject.PointDeploy) +
			devs[i].Script.Pending(faultinject.PointMeasure); p != 0 {
			t.Fatalf("phase 4: device %s still has %d faults queued", devs[i].Name, p)
		}
	}
	ctl.ProbeAll() // serves the 1-round sit-out
	ctl.ProbeAll() // Quarantined → Recovering, first probation success
	wantState("phase 4", crasher, fleet.Recovering)
	ctl.ProbeAll() // second probation success → Healthy
	wantState("phase 4", crasher, fleet.Healthy)
	wantState("phase 4", flapper, fleet.Healthy)
	rep, err = ctl.Rollout(next, cfg)
	if err != nil {
		t.Fatalf("phase 4 rollout: %v", err)
	}
	if rep.Halted || len(rep.Committed) != 8 {
		t.Fatalf("phase 4: want full convergence, got halted=%v committed=%v", rep.Halted, rep.Committed)
	}
	onProgram("phase 4", nextDigest, all...)
	st = ctl.Status()
	if st.Healthy != 8 || st.Serving != 8 {
		t.Fatalf("phase 4: healthy=%d serving=%d, want 8/8", st.Healthy, st.Serving)
	}
	if st.Rollouts != 5 || st.HaltedRollouts != 2 || st.FleetRollbacks != 1 {
		t.Fatalf("phase 4: rollouts=%d halted=%d fleetRollbacks=%d, want 5/2/1",
			st.Rollouts, st.HaltedRollouts, st.FleetRollbacks)
	}
}
