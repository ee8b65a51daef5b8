package fleet_test

import (
	"testing"
	"time"

	"pipeleon/internal/controlplane"
	"pipeleon/internal/fleet"
	"pipeleon/internal/target/remote"
)

// TestNicdKilledMidCanary is the fault-matrix test for a real device
// server dying under the fleet controller: one fleet member lives behind
// a loopback nicd-style control-plane server. The server is killed before
// a rollout whose canary stage spans both devices — the fleet must halt,
// roll back the device that had already committed, quarantine the dead
// one, and reconverge after the server comes back on the same address
// (the control-plane client re-dials transparently).
func TestNicdKilledMidCanary(t *testing.T) {
	progA := aclProgram(t)
	progB := altProgram(t)
	fpA, fpB := progA.Digest(), progB.Digest()

	// dev0 is in-process; dev1 sits behind a control-plane server.
	m0 := newMember(t, "dev0", progA)
	m1 := newMember(t, "dev1", progA)
	srv, err := controlplane.NewServer("127.0.0.1:0", nil, nil, controlplane.WithDevice(m1.Target))
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	cl, err := controlplane.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	// Tight budgets so a dead server fails fast instead of stalling the
	// canary stage (the satellite fix this PR makes to the client).
	cl.Timeout = 500 * time.Millisecond
	cl.Retry = controlplane.RetryPolicy{
		MaxAttempts: 2,
		BaseBackoff: 5 * time.Millisecond,
		MaxBackoff:  10 * time.Millisecond,
		MaxElapsed:  500 * time.Millisecond,
	}
	rdev, err := remote.New(cl)
	if err != nil {
		t.Fatal(err)
	}
	defer rdev.Close()

	pol := fleet.DefaultHealthPolicy()
	pol.ProbeTimeout = 5 * time.Second
	pol.DegradedAfter = 1
	pol.QuarantineAfter = 2
	pol.QuarantineProbes = 1
	pol.ProbationProbes = 2
	pol.MaxProbeBackoff = 0
	ctl := fleet.New(fleet.Options{Policy: pol, Logf: t.Logf})
	if err := ctl.Add("dev0", m0.Target); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Add("dev1", rdev); err != nil {
		t.Fatal(err)
	}
	// Canary = 2: the canary stage spans both devices, so the kill lands
	// mid-canary while dev0 commits.
	cfg := fleet.DefaultRolloutConfig(lockedSampler(dropTraffic()))
	cfg.Canary = 2
	cfg.Verify.MaxRegression = 1.0
	// Reverting to the slower progA is a deliberate regression, so the
	// back-out rollouts run unverified.
	cfgBack := cfg
	cfgBack.Verify = fleet.VerifyConfig{}

	// Healthy fleet converges on progB over the wire.
	rep, err := ctl.Rollout(progB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Halted || len(rep.Committed) != 2 {
		t.Fatalf("healthy rollout: halted=%v committed=%v", rep.Halted, rep.Committed)
	}
	if got := rdev.Program().Digest(); got != fpB {
		t.Fatalf("remote device runs %x, want %x", got, fpB)
	}

	// Kill the device server mid-fleet.
	srv.Close()

	rep, err = ctl.Rollout(progA, cfgBack)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Halted || !rep.RolledBack {
		t.Fatalf("rollout with dead nicd: halted=%v rolledback=%v (%s)",
			rep.Halted, rep.RolledBack, rep.HaltReason)
	}
	if len(rep.Committed) != 0 {
		t.Fatalf("committed=%v after halt, want none", rep.Committed)
	}
	// dev0 had committed progA and must be back on progB.
	if got := m0.Target.Program().Digest(); got != fpB {
		t.Fatalf("dev0 runs %x after fleet rollback, want %x", got, fpB)
	}

	// Probe failures quarantine the dead device; the fleet keeps serving.
	ctl.ProbeAll()
	ctl.ProbeAll()
	if st, _ := ctl.DeviceState("dev1"); st != fleet.Quarantined {
		t.Fatalf("dev1 = %s after dead probes, want quarantined", st)
	}
	if st := ctl.Status(); st.Serving != 1 {
		t.Fatalf("serving = %d with one dead device, want 1", st.Serving)
	}

	// "Restart nicd": a fresh server on the same address over the same
	// device. The remote target's client re-dials on its next call.
	srv2, err := controlplane.NewServer(addr, nil, nil, controlplane.WithDevice(m1.Target))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	ctl.ProbeAll() // sit-out
	ctl.ProbeAll() // probation 1
	ctl.ProbeAll() // probation 2 → healthy
	if st, _ := ctl.DeviceState("dev1"); st != fleet.Healthy {
		t.Fatalf("dev1 = %s after recovery, want healthy", st)
	}

	// The fleet reconverges, remote device included.
	rep, err = ctl.Rollout(progA, cfgBack)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Halted || len(rep.Committed) != 2 {
		t.Fatalf("reconvergence: halted=%v committed=%v (%s)", rep.Halted, rep.Committed, rep.HaltReason)
	}
	if got := m0.Target.Program().Digest(); got != fpA {
		t.Errorf("dev0 runs %x, want %x", got, fpA)
	}
	if got := rdev.Program().Digest(); got != fpA {
		t.Errorf("dev1 runs %x, want %x", got, fpA)
	}
	st := ctl.Status()
	if st.Healthy != 2 || st.HaltedRollouts != 1 || st.FleetRollbacks != 1 {
		t.Errorf("final status: healthy=%d halted=%d rollbacks=%d, want 2/1/1",
			st.Healthy, st.HaltedRollouts, st.FleetRollbacks)
	}
}
