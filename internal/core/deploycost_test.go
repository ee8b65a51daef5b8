package core

import (
	"strings"
	"testing"
	"time"

	"pipeleon/internal/faultinject"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/target"
	"pipeleon/internal/trafficgen"
)

// A deploying round no longer copies the program it deployed: what
// Materialize built becomes Current() as it is. That is sound only while
// nothing else holds it — not the session, not the device — and while the
// one program that is shared, the original, is still copied.
func TestCurrentNotAliased(t *testing.T) {
	rt, nic, _ := newProbeRig(t, aclProgram(t), reorderConfig(), nil)
	rt.changeThreshold = 0
	entries := func(p *p4ir.Program) int { return len(p.Tables["acl1"].Entries) }
	extra := func(v uint64) p4ir.Entry {
		return p4ir.Entry{Match: []p4ir.MatchValue{{Value: v}}, Action: "drop_packet"}
	}

	if rep := mustRound(t, rt, nic, dropMix(1, "tcp.dport", 23)); !rep.Deployed || rep.PlanSize == 0 {
		t.Fatalf("round 1 should deploy a plan: %+v", rep)
	}
	again, err := rt.search.Materialize(rt.activePlan)
	if err != nil {
		t.Fatal(err)
	}
	if cur := currentOf(rt); cur == again.Program || cur == nic.Program() || cur == rt.Original() {
		t.Fatal("Current() is the session's rewrite, the device's program or the original itself")
	}
	if err := rt.InsertEntry("acl1", extra(9001)); err != nil {
		t.Fatal(err)
	}
	if o, c, d, s := entries(rt.Original()), entries(currentOf(rt)), entries(nic.Program()), entries(again.Program); o != 2 || c != 2 || d != 2 || s != 1 {
		t.Fatalf("after one insert under a plan: original %d, current %d, device %d entries (want 2 each), an earlier rewrite %d (want 1)", o, c, d, s)
	}

	// Traffic nothing drops: the empty plan wins and the original goes back.
	calm := trafficgen.New(9, 0)
	calm.AddFlows(trafficgen.UniformFlows(10, 64)...)
	if rep := mustRound(t, rt, nic, calm); !rep.Deployed || rep.PlanSize != 0 {
		t.Fatalf("round 2 should deploy the original back: %+v", rep)
	}
	if currentOf(rt) == rt.Original() {
		t.Fatal("Current() is the original itself: an entry operation would apply to it twice")
	}
	if err := rt.InsertEntry("acl1", extra(9002)); err != nil {
		t.Fatal(err)
	}
	if o, c, d := entries(rt.Original()), entries(currentOf(rt)), entries(nic.Program()); o != 3 || c != 3 || d != 3 {
		t.Fatalf("after one insert on the original layout: original %d, current %d, device %d entries, want 3 each", o, c, d)
	}
	if currentOf(rt).Digest() != nic.Program().Digest() {
		t.Error("runtime and device disagree on the deployed program")
	}
}

// panickyTarget panics where its script says Fail: a device driver bug,
// as opposed to a device error.
type panickyTarget struct {
	target.Target
	faults faultinject.Injector
}

func (p *panickyTarget) Deploy(prog *p4ir.Program) error {
	if faultinject.At(p.faults, faultinject.PointDeploy).Fail {
		panic("deploy: index out of range")
	}
	return p.Target.Deploy(prog)
}

func (p *panickyTarget) Measure(pkts []*packet.Packet) (target.Measurement, error) {
	if faultinject.At(p.faults, faultinject.PointMeasure).Fail {
		panic("measure: nil pointer dereference")
	}
	return p.Target.Measure(pkts)
}

// A panic under OptimizeOnce costs one round: it is recorded, it counts
// toward the breaker, a staged program is rolled back, the lock is
// released — and the next round runs.
func TestPanicCostsOneRound(t *testing.T) {
	for _, tc := range []struct {
		name   string
		script *faultinject.Script
		staged bool
	}{
		// Measure calls of a guarded round: warm, pre | Deploy | warm, post.
		{"after deploy", faultinject.NewScript().Queue(faultinject.PointMeasure, faultinject.Decision{}, faultinject.Decision{}, faultinject.Decision{Fail: true}), true},
		{"in deploy", faultinject.NewScript().Queue(faultinject.PointDeploy, faultinject.Decision{Fail: true}), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt, nic, probe := newProbeRig(t, aclProgram(t), reorderConfig(), nil)
			rt.changeThreshold = 0
			rt.tgt = &panickyTarget{Target: probe, faults: tc.script}
			gen := dropMix(1, "tcp.dport", 23)
			rt.SetDeployGuard(DefaultDeployGuard(gen.Batch))
			checkpoint := nic.Program().Digest()

			drive(nic, gen, 4000)
			rep, err := rt.OptimizeOnce(time.Second)
			if err == nil || !strings.Contains(rep.Error, "panic") {
				t.Fatalf("panicking round: err = %v, report %+v", err, rep)
			}
			if rep.RolledBack != tc.staged {
				t.Errorf("RolledBack = %v with a program staged = %v", rep.RolledBack, tc.staged)
			}
			if nic.Program().Digest() != checkpoint || currentOf(rt).Digest() != checkpoint {
				t.Error("device or runtime is not on the checkpoint after the panic")
			}
			if st := rt.Status(); st.ConsecutiveFailures != 1 || st.Errors != 1 || len(rt.History()) != 1 {
				t.Errorf("panic not recorded as one failed round: %+v, %d reports", st, len(rt.History()))
			}

			if rep := mustRound(t, rt, nic, gen); !rep.Deployed || rep.RolledBack {
				t.Fatalf("the round after the panic should deploy: %+v", rep)
			}
			if currentOf(rt).Digest() != nic.Program().Digest() || nic.Program().Digest() == checkpoint {
				t.Error("runtime and device are not both on the new layout")
			}
		})
	}
}
