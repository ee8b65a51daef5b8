package core

import (
	"testing"
	"time"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/faultinject"
	"pipeleon/internal/nicsim"
	"pipeleon/internal/opt"
	"pipeleon/internal/profile"
	"pipeleon/internal/target"
	"pipeleon/internal/trafficgen"
)

// Fault matrix: for every injected fault class — deploy failure,
// mid-deploy crash (NIC silently left on the old program), cost-model
// misprediction (inflated gain), and stale/zeroed counter windows — the
// loop must record the failure in History and converge back to a healthy
// deployed state once the fault clears.

func newFaultRig(t *testing.T, inj faultinject.Injector) (*Runtime, *nicsim.NIC, *trafficgen.Generator) {
	t.Helper()
	prog := aclProgram(t)
	cfg := opt.DefaultConfig()
	cfg.TopKFrac = 1
	cfg.EnableCache = false
	cfg.EnableMerge = false
	col := profile.NewCollector()
	nic, err := nicsim.New(prog, nicsim.Config{
		Params:     costmodel.BlueField2(),
		Collector:  col,
		Instrument: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(prog, target.WithFaults(target.NewLocal(nic, col), inj), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.SetFaultInjector(inj)
	gen := trafficgen.New(1, 0)
	gen.AddFlows(trafficgen.DropTargetedFlows(2, 2000, "tcp.dport", 23, 0.8)...)
	return rt, nic, gen
}

// assertHealthy checks the runtime's view matches the device and the hot
// ACL reorder is live.
func assertHealthy(t *testing.T, rt *Runtime, nic *nicsim.NIC) {
	t.Helper()
	if root := currentOf(rt).Root; root != "acl2" {
		t.Errorf("runtime root = %q, want acl2 deployed", root)
	}
	if currentOf(rt).Digest() != nic.Program().Digest() {
		t.Error("runtime and device disagree on the deployed program")
	}
}

func TestDeployFailureRecordedAndRetried(t *testing.T) {
	script := faultinject.NewScript()
	rt, nic, gen := newFaultRig(t, script)
	// Queue after construction: NewRuntime's initial deploy must stay
	// clean.
	script.Queue(faultinject.PointDeploy, faultinject.Decision{Fail: true})

	drive(nic, gen, 3000)
	rep, err := rt.OptimizeOnce(time.Second)
	if err == nil {
		t.Fatal("injected deploy failure must surface as an error")
	}
	if rep.DeployError == "" {
		t.Errorf("DeployError not recorded: %+v", rep)
	}
	if rep.Deployed {
		t.Error("failed deploy reported Deployed")
	}
	// The round must still be in History (satellite: no lost rounds).
	hist := rt.History()
	if len(hist) != 1 || hist[0].DeployError == "" {
		t.Fatalf("failed round missing from history: %+v", hist)
	}
	// Device untouched by the failed swap.
	if nic.Program().Root != rt.Original().Root {
		t.Error("failed deploy mutated the device program")
	}

	// Next round (fault cleared): the deploy is retried even though the
	// profile barely moved, and succeeds.
	drive(nic, gen, 3000)
	rep2, err := rt.OptimizeOnce(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Deployed {
		t.Fatalf("retry after failed deploy did not redeploy: %+v", rep2)
	}
	assertHealthy(t, rt, nic)
}

func TestMispredictedPlanRollsBackWithinOneRound(t *testing.T) {
	script := faultinject.NewScript()
	// Inflate the first plan's predicted gain 50x: the verification
	// window must catch the unrealized prediction and roll back.
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
		t.Fatalf("mispredicted plan not rolled back within one round: %+v", rep)
	}
	// Rollback restored the original layout on both sides.
	if currentOf(rt).Root != "t1" || nic.Program().Root != "t1" {
		t.Errorf("rollback left roots runtime=%q device=%q, want t1", currentOf(rt).Root, nic.Program().Root)
	}

	// The offending plan is blacklisted for one round...
	drive(nic, gen, 3000)
	rep2, err := rt.OptimizeOnce(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.PlanBlacklisted {
		t.Errorf("rolled-back plan not blacklisted next round: %+v", rep2)
	}

	// ...then redeploys cleanly once the blacklist expires and the gain
	// prediction is no longer inflated.
	drive(nic, gen, 3000)
	rep3, err := rt.OptimizeOnce(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !rep3.Deployed || rep3.RolledBack {
		t.Fatalf("post-blacklist round should deploy and verify: %+v", rep3)
	}
	assertHealthy(t, rt, nic)
}

func TestMidDeployCrashDetectedAndRolledBack(t *testing.T) {
	script := faultinject.NewScript()
	rt, nic, gen := newFaultRig(t, script)
	// The swap reports success but the NIC stays on the old program.
	script.Queue(faultinject.PointDeploy, faultinject.Decision{Silent: true})
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
		t.Fatalf("silent mid-deploy crash not detected: %+v", rep)
	}
	// After rollback, runtime and device agree again.
	if currentOf(rt).Digest() != nic.Program().Digest() {
		t.Error("runtime and device diverged after crash + rollback")
	}

	// Blacklist round, then healthy redeploy.
	drive(nic, gen, 3000)
	if _, err := rt.OptimizeOnce(time.Second); err != nil {
		t.Fatal(err)
	}
	drive(nic, gen, 3000)
	rep3, err := rt.OptimizeOnce(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !rep3.Deployed || rep3.RolledBack {
		t.Fatalf("loop did not converge after mid-deploy crash: %+v", rep3)
	}
	assertHealthy(t, rt, nic)
}

func TestStaleCounterWindowRecovers(t *testing.T) {
	script := faultinject.NewScript()
	rt, nic, gen := newFaultRig(t, script)

	// Round 1: healthy deploy.
	drive(nic, gen, 3000)
	if rep, err := rt.OptimizeOnce(time.Second); err != nil || !rep.Deployed {
		t.Fatalf("round 1: rep=%+v err=%v", rep, err)
	}

	// Round 2: the counter window comes back zeroed.
	script.Queue(faultinject.PointCounters, faultinject.Decision{Zero: true})
	drive(nic, gen, 3000)
	if _, err := rt.OptimizeOnce(time.Second); err != nil {
		t.Fatal(err)
	}
	if script.Pending(faultinject.PointCounters) != 0 {
		t.Fatal("stale-counter fault did not fire")
	}

	// Round 3: counters are live again; the loop re-optimizes back to
	// the hot layout and runtime/device agree.
	drive(nic, gen, 3000)
	if _, err := rt.OptimizeOnce(time.Second); err != nil {
		t.Fatal(err)
	}
	assertHealthy(t, rt, nic)
	if len(rt.History()) != 3 {
		t.Errorf("history has %d rounds, want 3", len(rt.History()))
	}
}

func TestCircuitBreakerPausesAndRecovers(t *testing.T) {
	script := faultinject.NewScript()
	rt, nic, gen := newFaultRig(t, script)
	script.Queue(faultinject.PointDeploy, faultinject.Decision{Fail: true}, faultinject.Decision{Fail: true})
	guard := DeployGuard{BreakerThreshold: 2, BreakerCooldownRounds: 2}
	rt.SetDeployGuard(guard) // breaker/blacklist only: no Sampler, no verify

	// Two consecutive deploy failures open the breaker.
	for i := 0; i < 2; i++ {
		drive(nic, gen, 3000)
		rep, err := rt.OptimizeOnce(time.Second)
		if err == nil || rep.DeployError == "" {
			t.Fatalf("round %d: expected injected deploy failure, got %+v (%v)", i+1, rep, err)
		}
	}
	// Cooldown rounds: redeployment paused even though the fault cleared.
	for i := 0; i < 2; i++ {
		drive(nic, gen, 3000)
		rep, err := rt.OptimizeOnce(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.BreakerOpen {
			t.Fatalf("cooldown round %d: breaker not open: %+v", i+1, rep)
		}
		if rep.Deployed {
			t.Fatal("breaker-open round deployed")
		}
	}
	// Breaker closes: the loop deploys and converges.
	drive(nic, gen, 3000)
	rep, err := rt.OptimizeOnce(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Deployed {
		t.Fatalf("post-cooldown round did not deploy: %+v", rep)
	}
	assertHealthy(t, rt, nic)
}

// TestRunLoopSurvivesFaultBurst drives rounds on a ticker, from a
// goroutine of their own, through a deploy failure and a silent mid-deploy
// crash while traffic flows concurrently, and asserts the loop converges to
// a healthy deployed state with the failures on record. Run under -race
// this also exercises the concurrent paths.
func TestRunLoopSurvivesFaultBurst(t *testing.T) {
	script := faultinject.NewScript()
	rt, nic, gen := newFaultRig(t, script)
	script.Queue(faultinject.PointDeploy,
		faultinject.Decision{Fail: true},
		faultinject.Decision{Silent: true})
	// The guard samples concurrently with the test goroutine's traffic, so
	// it draws from its own Split child of the hot-flow generator.
	guard := DefaultDeployGuard(gen.Split(1)[0].Batch)
	guard.MinRealizedGainFrac = 0.5
	guard.BlacklistRounds = 1
	rt.SetDeployGuard(guard)

	const interval = 10 * time.Millisecond
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				_, _ = rt.OptimizeOnce(interval)
			}
		}
	}()

	deadline := time.Now().Add(10 * time.Second)
	converged := false
	for time.Now().Before(deadline) {
		drive(nic, gen, 500)
		if script.Pending(faultinject.PointDeploy) == 0 && currentOf(rt).Root == "acl2" {
			converged = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("the round loop did not stop")
	}
	if !converged {
		t.Fatalf("loop did not converge; history=%+v", rt.History())
	}
	if currentOf(rt).Digest() != nic.Program().Digest() {
		t.Error("runtime and device disagree after convergence")
	}
	var sawFailure, sawRollback bool
	for _, rep := range rt.History() {
		if rep.DeployError != "" {
			sawFailure = true
		}
		if rep.RolledBack {
			sawRollback = true
		}
	}
	if !sawFailure {
		t.Error("history does not record the injected deploy failure")
	}
	if !sawRollback {
		t.Error("history does not record the mid-deploy-crash rollback")
	}
}
