package fleet

import (
	"fmt"

	"pipeleon/internal/faultinject"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/target"
)

// scenarioPolicy is the health policy the scripted scenario runs under:
// tightened thresholds so each phase needs a deterministic, small number
// of probe rounds.
func scenarioPolicy() HealthPolicy {
	pol := DefaultHealthPolicy()
	pol.DegradedAfter = 1
	pol.QuarantineAfter = 2
	pol.BreakerThreshold = 2
	pol.QuarantineProbes = 1
	pol.ProbationProbes = 2
	pol.MaxProbeBackoff = 1
	pol.RestartBudget = 2
	return pol
}

// FaultScenarioInput bundles what RunFaultScenario needs.
type FaultScenarioInput struct {
	// Devices are the fleet members in registration order; at least 8.
	// Device 3 is scripted to crash on deploy, device 5 to regress on
	// verify, so their Scripts must be non-nil.
	Devices []FleetMember
	// Next is the program rolled out over the devices' current one.
	Next *p4ir.Program
	// Sampler feeds the rollout verification measurements.
	Sampler func(n int) []*packet.Packet
	// Logf receives progress lines (nil → silent).
	Logf func(format string, args ...any)
}

// FleetMember pairs a named target (typically target.WithFaults around an
// emulator or remote device) with the fault script the scenario queues
// decisions into. Callers assemble the members — keeping this package
// free of any emulator dependency — and RunFaultScenario drives them.
type FleetMember struct {
	Name   string
	Target target.Target
	Script *faultinject.Script
}

// RunFaultScenario drives the fleet acceptance scenario end to end and
// returns a descriptive error on the first violated assertion. It is the
// single source of truth for the fleet's failure-handling contract,
// shared by `go test ./internal/fleet` and `fleetd -scenario` (wired into
// `make fleet-sim`):
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
func RunFaultScenario(in FaultScenarioInput) error {
	logf := in.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if len(in.Devices) < 8 {
		return fmt.Errorf("fleet scenario: need at least 8 devices, got %d", len(in.Devices))
	}
	devs := in.Devices[:8]
	const crasher, flapper = 3, 5
	for _, i := range []int{0, crasher, flapper} {
		if devs[i].Script == nil {
			return fmt.Errorf("fleet scenario: device %d needs a fault script", i)
		}
	}

	ctl := New(Options{Policy: scenarioPolicy(), Logf: logf})
	for _, m := range devs {
		if err := ctl.Add(m.Name, m.Target); err != nil {
			return err
		}
	}
	cfg := RolloutConfig{
		Canary:         1,
		FirstWave:      2,
		WaveGrowth:     2,
		MaxFailureFrac: 0.25,
		// Loose allowance: only the scripted 10× regressions trip it.
		Verify: VerifyConfig{Sampler: in.Sampler, Packets: 128, MaxRegression: 1.0},
	}
	nextDigest := in.Next.Digest()
	oldDigest, ok := digestOf(devs[0].Target)
	if !ok || oldDigest == nextDigest {
		return fmt.Errorf("fleet scenario: devices must start on a program different from Next (old=%q next=%q)", shortDigest(oldDigest), shortDigest(nextDigest))
	}
	onProgram := func(want p4ir.Digest, names ...int) error {
		for _, i := range names {
			if got, _ := digestOf(devs[i].Target); got != want {
				return fmt.Errorf("device %s runs %q, want %q", devs[i].Name, shortDigest(got), shortDigest(want))
			}
		}
		return nil
	}
	wantState := func(i int, want State) error {
		st, err := ctl.DeviceState(devs[i].Name)
		if err != nil {
			return err
		}
		if st != want {
			return fmt.Errorf("device %s state = %s, want %s", devs[i].Name, st, want)
		}
		return nil
	}
	all := []int{0, 1, 2, 3, 4, 5, 6, 7}
	// A verified deploy measures four times (core.CompareDeploy: warm pass
	// and baseline, deploy, warm pass and post); scaling the last one is a
	// deploy that regressed the device.
	regressOnVerify := []faultinject.Decision{{}, {}, {}, {Scale: 10}}

	ctl.ProbeAll()
	st := ctl.Status()
	if st.Healthy != 8 {
		return fmt.Errorf("after initial probes: %d healthy, want 8", st.Healthy)
	}

	// ---- Phase 1: canary gate -------------------------------------------
	logf("phase 1: canary verification failure must stop fan-out")
	devs[0].Script.Queue(faultinject.PointMeasure, regressOnVerify...)
	rep, err := ctl.Rollout(in.Next, cfg)
	if err != nil {
		return fmt.Errorf("phase 1 rollout: %w", err)
	}
	if !rep.Halted || rep.Attempted != 1 || len(rep.Results) != 1 {
		return fmt.Errorf("phase 1: want halt after 1 canary attempt, got halted=%v attempted=%d results=%d (%s)",
			rep.Halted, rep.Attempted, len(rep.Results), rep.HaltReason)
	}
	if rep.RolledBack {
		return fmt.Errorf("phase 1: nothing was committed, fleet rollback must not run")
	}
	if err := onProgram(oldDigest, all...); err != nil {
		return fmt.Errorf("phase 1: %w", err)
	}
	ctl.ProbeAll() // healthy probe lifts the canary's Degraded mark
	if err := wantState(0, Healthy); err != nil {
		return fmt.Errorf("phase 1: %w", err)
	}

	// ---- Phase 2: mid-wave breach → halt + rollback ---------------------
	logf("phase 2: ratio breach mid-wave must roll back committed devices")
	devs[crasher].Script.Queue(faultinject.PointDeploy, faultinject.Decision{Fail: true})
	devs[flapper].Script.Queue(faultinject.PointMeasure, regressOnVerify...)
	rep, err = ctl.Rollout(in.Next, cfg)
	if err != nil {
		return fmt.Errorf("phase 2 rollout: %w", err)
	}
	if !rep.Halted || !rep.RolledBack {
		return fmt.Errorf("phase 2: want halt+rollback, got halted=%v rolledback=%v (%s)",
			rep.Halted, rep.RolledBack, rep.HaltReason)
	}
	if rep.Attempted != 7 || rep.Failed != 2 {
		return fmt.Errorf("phase 2: attempted=%d failed=%d, want 7/2", rep.Attempted, rep.Failed)
	}
	if len(rep.Committed) != 0 || len(rep.RollbackErrors) != 0 {
		return fmt.Errorf("phase 2: committed=%v rollbackErrors=%v, want none", rep.Committed, rep.RollbackErrors)
	}
	if err := onProgram(oldDigest, all...); err != nil {
		return fmt.Errorf("phase 2: fleet rollback incomplete: %w", err)
	}

	// ---- Phase 3: breaker quarantine + graceful degradation -------------
	logf("phase 3: repeat offenders trip the breaker; fleet degrades gracefully")
	devs[crasher].Script.Queue(faultinject.PointDeploy, faultinject.Decision{Fail: true})
	devs[flapper].Script.Queue(faultinject.PointMeasure, regressOnVerify...)
	rep, err = ctl.Rollout(in.Next, cfg)
	if err != nil {
		return fmt.Errorf("phase 3 rollout: %w", err)
	}
	if rep.Halted {
		return fmt.Errorf("phase 3: rollout halted (%s); 2/8 failures must not breach 25%%", rep.HaltReason)
	}
	if len(rep.Committed) != 6 {
		return fmt.Errorf("phase 3: committed=%v, want the 6 working devices", rep.Committed)
	}
	if err := wantState(crasher, Quarantined); err != nil {
		return fmt.Errorf("phase 3: %w", err)
	}
	if err := wantState(flapper, Quarantined); err != nil {
		return fmt.Errorf("phase 3: %w", err)
	}
	if err := onProgram(nextDigest, 0, 1, 2, 4, 6, 7); err != nil {
		return fmt.Errorf("phase 3: %w", err)
	}
	if err := onProgram(oldDigest, crasher, flapper); err != nil {
		return fmt.Errorf("phase 3: %w", err)
	}
	st = ctl.Status()
	if st.Serving != 6 || st.Quarantined != 2 {
		return fmt.Errorf("phase 3: serving=%d quarantined=%d, want 6/2", st.Serving, st.Quarantined)
	}

	// Quarantined devices are excluded from the next rollout entirely.
	rep, err = ctl.Rollout(in.Next, cfg)
	if err != nil {
		return fmt.Errorf("phase 3 convergence rollout: %w", err)
	}
	if rep.Attempted != 0 || len(rep.Committed) != 6 || len(rep.Skipped) != 2 {
		return fmt.Errorf("phase 3: converged fleet should skip deploys: attempted=%d committed=%d skipped=%v",
			rep.Attempted, len(rep.Committed), rep.Skipped)
	}

	// ---- Phase 4: probation and re-admission ----------------------------
	logf("phase 4: quarantine expires, probation passes, fleet reconverges")
	for _, i := range []int{crasher, flapper} {
		if p := devs[i].Script.Pending(faultinject.PointDeploy) +
			devs[i].Script.Pending(faultinject.PointMeasure); p != 0 {
			return fmt.Errorf("phase 4: device %s still has %d faults queued", devs[i].Name, p)
		}
	}
	ctl.ProbeAll() // serves the 1-round sit-out
	ctl.ProbeAll() // Quarantined → Recovering, first probation success
	if err := wantState(crasher, Recovering); err != nil {
		return fmt.Errorf("phase 4: %w", err)
	}
	ctl.ProbeAll() // second probation success → Healthy
	if err := wantState(crasher, Healthy); err != nil {
		return fmt.Errorf("phase 4: %w", err)
	}
	if err := wantState(flapper, Healthy); err != nil {
		return fmt.Errorf("phase 4: %w", err)
	}
	rep, err = ctl.Rollout(in.Next, cfg)
	if err != nil {
		return fmt.Errorf("phase 4 rollout: %w", err)
	}
	if rep.Halted || len(rep.Committed) != 8 {
		return fmt.Errorf("phase 4: want full convergence, got halted=%v committed=%v", rep.Halted, rep.Committed)
	}
	if err := onProgram(nextDigest, all...); err != nil {
		return fmt.Errorf("phase 4: %w", err)
	}
	st = ctl.Status()
	if st.Healthy != 8 || st.Serving != 8 {
		return fmt.Errorf("phase 4: healthy=%d serving=%d, want 8/8", st.Healthy, st.Serving)
	}
	if st.Rollouts != 5 || st.HaltedRollouts != 2 || st.FleetRollbacks != 1 {
		return fmt.Errorf("phase 4: rollouts=%d halted=%d fleetRollbacks=%d, want 5/2/1",
			st.Rollouts, st.HaltedRollouts, st.FleetRollbacks)
	}
	logf("scenario passed: canary gate, halt+rollback, quarantine, re-admission all verified")
	return nil
}
