package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"pipeleon/internal/faultinject"
	"pipeleon/internal/nicsim"
	"pipeleon/internal/opt"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/trafficgen"
)

// exitRig is a guarded probe rig whose round under test sees gen's traffic.
type exitRig struct {
	rt     *Runtime
	nic    *nicsim.NIC
	probe  *probeTarget
	script *faultinject.Script
	gen    *trafficgen.Generator
}

// round drives the rig's traffic and runs one round, failed or not.
func (x *exitRig) round() (RoundReport, error) {
	drive(x.nic, x.gen, 4000)
	return x.rt.OptimizeOnce(time.Second)
}

// prepRound runs a round that must not fail.
func (x *exitRig) prepRound(t *testing.T) RoundReport {
	t.Helper()
	rep, err := x.round()
	if err != nil {
		t.Fatalf("preparatory round %d: %v", rep.Round, err)
	}
	return rep
}

// outcomeFields are the report fields finishLocked writes, as set or not.
type outcomeFields struct {
	deployed, skipped, rolledBack, blacklisted, breakerOpen, err, deployErr bool
}

func fieldsOf(rep RoundReport) outcomeFields {
	return outcomeFields{rep.Deployed, rep.SkippedUnchanged, rep.RolledBack, rep.PlanBlacklisted,
		rep.BreakerOpen, rep.Error != "", rep.DeployError != ""}
}

// Every exit of a round, driven through the rigs: the report fields it
// sets, whether it charged the breaker (a streak of one goes to two; a
// commit ends it), whether it blacklisted the plan, whether the next round
// re-evaluates whatever the profile does, and whether OptimizeOnce failed.
func TestEveryRoundOutcome(t *testing.T) {
	plan := func(x *exitRig, d faultinject.Decision) { x.script.Queue(faultinject.PointPlan, d) }
	inflated := faultinject.Decision{Scale: 50} // the verification window contradicts it
	for _, tc := range []struct {
		name  string
		pin   string // a table pinTight pins
		cfg   func(*opt.Config)
		guard func(*DeployGuard)
		// prep readies the rig for the round under test; run, when set,
		// replaces OptimizeOnce as that round.
		prep     func(t *testing.T, x *exitRig)
		run      func(x *exitRig) (RoundReport, error)
		want     outcomeFields
		detail   string // in Error or DeployError
		charged  bool
		ends     bool // a commit ends the failure streak
		barred   bool // this round blacklisted its plan
		reEval   bool
		fails    bool
		check    func(t *testing.T, x *exitRig, rep RoundReport)
		panicked *faultinject.Script // a panickyTarget's script
	}{
		{name: "lost window", prep: func(t *testing.T, x *exitRig) {
			x.prepRound(t)
			x.script.Queue(faultinject.PointCounters, faultinject.Decision{Fail: true})
		}, want: outcomeFields{err: true}, detail: "injected", fails: true},
		{name: "breaker open", guard: func(g *DeployGuard) { g.BreakerThreshold = 1 }, prep: func(t *testing.T, x *exitRig) {
			x.script.Queue(faultinject.PointDeploy, faultinject.Decision{Fail: true})
			if rep, _ := x.round(); rep.DeployError == "" {
				t.Fatalf("the failed deploy that opens the breaker: %+v", rep)
			}
		}, want: outcomeFields{breakerOpen: true}, reEval: true},
		{name: "unchanged", cfg: func(c *opt.Config) { c.ProfileChangeThreshold = 0.5 }, prep: func(t *testing.T, x *exitRig) {
			x.prepRound(t)
		}, want: outcomeFields{skipped: true}},
		{name: "search failed", prep: func(t *testing.T, x *exitRig) {
			x.prepRound(t)
			plan(x, faultinject.Decision{Fail: true, Err: errors.New("optimizer gave up")})
		}, want: outcomeFields{err: true}, detail: "optimizer gave up", reEval: true, fails: true},
		{name: "blacklisted", guard: func(g *DeployGuard) { g.BlacklistRounds = 1 }, prep: func(t *testing.T, x *exitRig) {
			plan(x, inflated)
			if rep := x.prepRound(t); !rep.RolledBack {
				t.Fatalf("the rollback that blacklists the plan: %+v", rep)
			}
		}, want: outcomeFields{blacklisted: true}, reEval: true},
		{name: "kept by hysteresis", prep: func(t *testing.T, x *exitRig) {
			x.prepRound(t)
		}, check: func(t *testing.T, x *exitRig, rep RoundReport) {
			if rep.ActivePlanGain <= 0 || rep.PlanSize == 0 {
				t.Errorf("a kept round re-scores the active plan: %+v", rep)
			}
		}},
		{name: "same layout", prep: func(t *testing.T, x *exitRig) {
			x.gen = trafficgen.New(9, 0) // nothing drops: the original is the plan
			x.gen.AddFlows(trafficgen.UniformFlows(10, 64)...)
		}, check: func(t *testing.T, x *exitRig, rep RoundReport) {
			if rep.ActivePlanGain != 0 || rep.PlanSize != 0 {
				t.Errorf("the round should find the deployed original again: %+v", rep)
			}
		}},
		{name: "refused by the device", prep: func(t *testing.T, x *exitRig) {
			x.script.Queue(faultinject.PointDeploy, faultinject.Decision{Fail: true})
		}, want: outcomeFields{deployErr: true}, detail: "injected", charged: true, reEval: true, fails: true},
		{name: "refused by the gate", pin: "acl1", prep: func(t *testing.T, x *exitRig) {
			// A second entry in the pinned acl1: the device takes it, the
			// lint refuses the layout that holds it (PL105).
			if err := x.rt.InsertEntry("acl1", p4ir.Entry{Match: []p4ir.MatchValue{{Value: 0x1fff}}, Action: "drop_packet"}); err != nil {
				t.Fatal(err)
			}
		}, want: outcomeFields{deployErr: true}, detail: "blocked by static analysis", charged: true, reEval: true, fails: true},
		{name: "refused: no program", prep: func(t *testing.T, x *exitRig) {
			x.prepRound(t)
		}, run: func(x *exitRig) (RoundReport, error) {
			// No option of an unknown kind applies, so the plan never
			// becomes a program; a round's search cannot produce one.
			x.rt.mu.Lock()
			defer x.rt.mu.Unlock()
			x.rt.round++
			rd := &round{report: RoundReport{Round: x.rt.round}, plan: []*opt.Option{{Kind: 99}}}
			return x.rt.finishLocked(rd, x.rt.deployStage(rd))
		}, want: outcomeFields{err: true}, detail: "unknown option kind", reEval: true, fails: true},
		{name: "rolled back", prep: func(t *testing.T, x *exitRig) { plan(x, inflated) },
			want: outcomeFields{deployed: true, rolledBack: true}, charged: true, barred: true, reEval: true,
			check: func(t *testing.T, x *exitRig, rep RoundReport) {
				if x.rt.Current().Root != "t1" || x.nic.Program().Root != "t1" {
					t.Error("the rollback left the runtime or the device off the original")
				}
			}},
		{name: "rollback failed", prep: func(t *testing.T, x *exitRig) {
			plan(x, inflated)
			x.script.Queue(faultinject.PointDeploy, faultinject.Decision{}, faultinject.Decision{Fail: true})
		}, want: outcomeFields{deployed: true, deployErr: true}, detail: "rollback failed", charged: true, reEval: true, fails: true},
		{name: "commit failed", prep: func(t *testing.T, x *exitRig) {
			x.probe.failCommit = errors.New("commit lost")
		}, want: outcomeFields{deployed: true, rolledBack: true, deployErr: true}, detail: "commit failed: commit lost",
			charged: true, reEval: true, fails: true,
			check: func(t *testing.T, x *exitRig, rep RoundReport) {
				if x.rt.Current().Root != "t1" || x.nic.Program().Digest() != x.rt.Current().Digest() {
					t.Error("an uncommitted program stayed staged")
				}
			}},
		{name: "committed", want: outcomeFields{deployed: true}, ends: true},
		{name: "panicked before staging", panicked: faultinject.NewScript().Queue(faultinject.PointDeploy, faultinject.Decision{Fail: true}),
			want: outcomeFields{err: true}, detail: "panic: deploy", charged: true, reEval: true, fails: true},
		{name: "panicked while staged",
			// Measure calls of a guarded round: warm, pre | Deploy | warm, post.
			panicked: faultinject.NewScript().Queue(faultinject.PointMeasure, faultinject.Decision{}, faultinject.Decision{}, faultinject.Decision{Fail: true}),
			want:     outcomeFields{deployed: true, err: true, rolledBack: true}, detail: "panic: measure", charged: true, reEval: true, fails: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := reorderConfig()
			if tc.cfg != nil {
				tc.cfg(&cfg)
			}
			script := faultinject.NewScript()
			prog := aclProgram(t)
			if tc.pin != "" {
				pinTight(prog, tc.pin)
			}
			rt, nic, probe := newProbeRig(t, prog, cfg, script)
			x := &exitRig{rt: rt, nic: nic, probe: probe, script: script, gen: dropMix(1, "tcp.dport", 23)}
			if tc.panicked != nil {
				rt.tgt = &panickyTarget{Target: probe, faults: tc.panicked}
			}
			guard := DefaultDeployGuard(func(n int) []*packet.Packet { return x.gen.Batch(n) })
			guard.MinRealizedGainFrac = 0.5
			if tc.guard != nil {
				tc.guard(&guard)
			}
			rt.SetDeployGuard(guard)
			if tc.prep != nil {
				tc.prep(t, x)
			}
			rt.consecFailures = 1
			run := tc.run
			if run == nil {
				run = (*exitRig).round
			}
			rep, err := run(x)

			if got := fieldsOf(rep); got != tc.want {
				t.Errorf("report fields %+v, want %+v (report %+v)", got, tc.want, rep)
			}
			if !strings.Contains(rep.Error+rep.DeployError, tc.detail) {
				t.Errorf("report says %q / %q, want %q in it", rep.Error, rep.DeployError, tc.detail)
			}
			if (err != nil) != tc.fails {
				t.Errorf("OptimizeOnce returned %v, want failure %v", err, tc.fails)
			}
			streak := 1
			switch {
			case tc.charged:
				streak = 2
			case tc.ends:
				streak = 0
			}
			if rt.consecFailures != streak {
				t.Errorf("failure streak %d after a streak of 1, want %d", rt.consecFailures, streak)
			}
			if barred := rt.blacklist[strings.Join(rep.Plan, ";")] == rt.round+guard.BlacklistRounds; barred != tc.barred {
				t.Errorf("plan blacklisted by this round: %v, want %v", barred, tc.barred)
			}
			if reEval := rt.lastCosts == nil; reEval != tc.reEval {
				t.Errorf("next round re-evaluates regardless: %v, want %v", reEval, tc.reEval)
			}
			if got := rt.History(); got[len(got)-1].Round != rep.Round {
				t.Errorf("round %d is not the last one recorded", rep.Round)
			}
			if tc.check != nil {
				tc.check(t, x, rep)
			}
		})
	}
}
