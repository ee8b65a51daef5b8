package core

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/faultinject"
	"pipeleon/internal/nicsim"
	"pipeleon/internal/opt"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/profile"
	"pipeleon/internal/target"
	"pipeleon/internal/trafficgen"
)

// The round's three economies — decide before materializing, one stored
// digest of the deployed layout, one gate verdict per distinct program —
// each skip work, so each gets a test that the skipped work was not
// needed: nothing unvetted reaches Deploy, nothing stale is compared or
// reused.

// probeTarget is a local target that shows every program handed to Deploy
// to onDeploy and fails one Commit with failCommit when that is set.
type probeTarget struct {
	target.Target
	onDeploy   func(*p4ir.Program)
	failCommit error
}

func (p *probeTarget) Deploy(prog *p4ir.Program) error {
	if p.onDeploy != nil {
		p.onDeploy(prog)
	}
	return p.Target.Deploy(prog)
}

func (p *probeTarget) Commit() error {
	if err := p.failCommit; err != nil {
		p.failCommit = nil
		return err
	}
	return p.Target.Commit()
}

func newProbeRig(t *testing.T, prog *p4ir.Program, cfg opt.Config, inj faultinject.Injector) (*Runtime, *nicsim.NIC, *probeTarget) {
	t.Helper()
	col := profile.NewCollector()
	pm := costmodel.BlueField2()
	for _, tbl := range prog.Tables { // SRAM that holds the pinned tables as they are (see pinTight)
		if tbl.MemTier() == p4ir.TierSRAM {
			pm.SRAMFactor, pm.SRAMBytes = 0.4, pm.SRAMBytes+tbl.MemoryBytes()
		}
	}
	nic, err := nicsim.New(prog, nicsim.Config{Params: pm, Collector: col, Instrument: true})
	if err != nil {
		t.Fatal(err)
	}
	tgt := &probeTarget{Target: target.WithFaults(target.NewLocal(nic, col), inj)}
	rt, err := NewRuntime(prog, tgt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.SetFaultInjector(inj)
	return rt, nic, tgt
}

// pinTight pins a table of prog to SRAM, which a probe rig sizes to hold
// the pinned tables as they are: one more entry overcommits it, a layout
// the lint refuses (PL105). An entry is judged by p4ir's rule alone, so
// this is how an entry operation still makes the next deploy fail the gate.
func pinTight(prog *p4ir.Program, table string) *p4ir.Program {
	prog.Tables[table].SetMemTier(p4ir.TierSRAM)
	return prog
}

// reorderConfig searches every round (no unchanged-profile skip) for
// reorders only, so the plan follows which ACL the traffic makes hot.
func reorderConfig() opt.Config {
	cfg := opt.DefaultConfig()
	cfg.TopKFrac = 1
	cfg.EnableCache = false
	cfg.EnableMerge = false
	cfg.ProfileChangeThreshold = 0
	return cfg
}

// dropMix is traffic that mostly dies at the ACL matching field == value.
func dropMix(seed uint64, field string, value uint64) *trafficgen.Generator {
	gen := trafficgen.New(seed, 0)
	gen.AddFlows(trafficgen.DropTargetedFlows(seed+1, 2000, field, value, 0.8)...)
	return gen
}

func mustRound(t *testing.T, rt *Runtime, nic *nicsim.NIC, gen *trafficgen.Generator) RoundReport {
	t.Helper()
	drive(nic, gen, 4000)
	rep, err := rt.OptimizeOnce(time.Second)
	if err != nil {
		t.Fatalf("round %d: %v", rep.Round, err)
	}
	return rep
}

// A round the blacklist withholds or the hysteresis keeps was decided on
// the plan and its gain alone: the session applied nothing and proved
// nothing for it.
func TestKeptRoundMaterializesNothing(t *testing.T) {
	script := faultinject.NewScript()
	// The first plan's predicted gain is inflated 50x, so the verification
	// window rolls it back and blacklists it.
	script.Queue(faultinject.PointPlan, faultinject.Decision{Scale: 50})
	cfg := reorderConfig()
	cfg.DeepVerify = true
	rt, nic, _ := newProbeRig(t, aclProgram(t), cfg, script)
	gen := dropMix(1, "tcp.dport", 23)
	guard := DefaultDeployGuard(gen.Batch)
	guard.MinRealizedGainFrac = 0.5
	guard.BlacklistRounds = 1
	rt.SetDeployGuard(guard)

	// What a materialization moves: the apply counter, proofs run or
	// answered from the proof memo, option verdicts computed.
	type work struct{ materialized, proofs, verdicts uint64 }
	workDone := func() work {
		s := rt.search.Stats()
		return work{s.Materialized, s.ProofMemoHits + s.ProofMemoMisses, s.VerifyMisses}
	}

	if rep := mustRound(t, rt, nic, gen); !rep.RolledBack {
		t.Fatalf("round 1 should deploy and roll back: %+v", rep)
	}
	before := workDone()
	if before.materialized != 1 {
		t.Fatalf("round 1 materialized %d programs, want 1", before.materialized)
	}
	if rep := mustRound(t, rt, nic, gen); !rep.PlanBlacklisted {
		t.Fatalf("round 2 should be withheld by the blacklist: %+v", rep)
	}
	if after := workDone(); after != before {
		t.Errorf("blacklisted round did materialization work: %+v -> %+v", before, after)
	}

	if rep := mustRound(t, rt, nic, gen); !rep.Deployed || rep.RolledBack {
		t.Fatalf("round 3 should deploy: %+v", rep)
	}
	before = workDone()
	rep := mustRound(t, rt, nic, gen)
	if rep.Deployed || rep.SkippedUnchanged || rep.ActivePlanGain <= 0 || rep.PlanSize == 0 {
		t.Fatalf("round 4 should search, re-score the active plan and keep it: %+v", rep)
	}
	if after := workDone(); after != before {
		t.Errorf("hysteresis-kept round did materialization work: %+v -> %+v", before, after)
	}
}

// newWatchedRig is newProbeRig with onDeploy shown every program handed
// to Deploy from construction on, the runtime itself included (nil while
// NewRuntime is still running).
func newWatchedRig(t *testing.T, prog *p4ir.Program, cfg opt.Config, onDeploy func(*Runtime, *p4ir.Program)) (*Runtime, *nicsim.NIC) {
	t.Helper()
	col := profile.NewCollector()
	nic, err := nicsim.New(prog, nicsim.Config{Params: costmodel.BlueField2(), Collector: col, Instrument: true})
	if err != nil {
		t.Fatal(err)
	}
	var rt *Runtime
	tgt := &probeTarget{Target: target.NewLocal(nic, col), onDeploy: func(p *p4ir.Program) { onDeploy(rt, p) }}
	if rt, err = NewRuntime(prog, tgt, cfg); err != nil {
		t.Fatal(err)
	}
	return rt, nic
}

// Every program handed to Deploy — by construction, by a round, by an entry
// operation's redeploy — holds a gate verdict, run this time or
// remembered, that is younger than the last entry operation.
func TestEveryDeployedProgramWasGated(t *testing.T) {
	var deploys, repeats, firstSights int
	seen := map[p4ir.Digest]bool{} // gated since the last entry operation
	check := func(rt *Runtime, prog *p4ir.Program) {
		if !gateRemembers(rt, prog) {
			t.Errorf("deploy %d (round %d) handed the device a program with no live gate verdict", deploys, rt.round)
		}
		if d := prog.Digest(); seen[d] {
			repeats++
		} else {
			firstSights++
			seen[d] = true
		}
	}
	var built []*p4ir.Program // deployed while NewRuntime ran
	watch := func(rt *Runtime, prog *p4ir.Program) {
		deploys++
		if rt == nil {
			built = append(built, prog.Clone())
			return
		}
		check(rt, prog)
	}
	constructed := func(rt *Runtime) {
		for _, prog := range built {
			check(rt, prog)
		}
		built = nil
	}

	rt, nic := newWatchedRig(t, aclProgram(t), reorderConfig(), watch)
	constructed(rt)
	mixes := []*trafficgen.Generator{dropMix(1, "tcp.dport", 23), dropMix(5, "tcp.sport", 1111)}
	extra := p4ir.Entry{Match: []p4ir.MatchValue{{Value: 9999}}, Action: "drop_packet"}
	for round := 0; round < 14; round++ {
		switch round {
		case 5:
			if err := rt.InsertEntry("acl1", extra); err != nil {
				t.Fatal(err)
			}
			clear(seen)
		case 10:
			if err := rt.DeleteEntry("acl1", extra.Match); err != nil {
				t.Fatal(err)
			}
			clear(seen)
		}
		mustRound(t, rt, nic, mixes[round%2])
	}
	if deploys < 11 {
		t.Fatalf("only %d of 14 alternating rounds deployed", deploys-1)
	}
	// Both kinds of verdict were exercised: the original, then three entry
	// versions of two first sights each, everything else a layout the loop
	// returned to.
	if firstSights < 7 || repeats < 4 {
		t.Errorf("%d first-sight and %d repeat deploys; want at least 7 and 4", firstSights, repeats)
	}
	// The gate ran once per first sight; every repeat was a memo hit.
	if _, misses := rt.gate.MemoStats(); int(misses) != firstSights {
		t.Errorf("gate ran %d times for %d first-sight deploys", misses, firstSights)
	}

	// The slow path: an insert into a merged table deploys the regenerated
	// cross product.
	deploys = 0
	mrt, mnic := newWatchedRig(t, mergeProgram(t), mergeConfig(), watch)
	constructed(mrt)
	mergeRound(t, mrt, mnic)
	clear(seen)
	if err := mrt.InsertEntry("A", p4ir.Entry{Match: []p4ir.MatchValue{{Value: 3}}, Action: "set"}); err != nil {
		t.Fatal(err)
	}
	if deploys != 3 {
		t.Errorf("construction, a merge round and a slow-path insert made %d deploys, want 3", deploys)
	}
}

// mergeConfig searches for merges only.
func mergeConfig() opt.Config {
	cfg := opt.DefaultConfig()
	cfg.TopKFrac = 1
	cfg.EnableCache = false
	cfg.EnableReorder = false
	return cfg
}

// mergeRound runs the round that deploys mergeProgram's merge, after which
// an entry operation on A takes the slow path.
func mergeRound(t *testing.T, rt *Runtime, nic *nicsim.NIC) {
	t.Helper()
	gen := trafficgen.New(5, 0)
	gen.AddFlows(trafficgen.UniformFlows(6, 50)...)
	drive(nic, gen, 2000)
	if rep, err := rt.OptimizeOnce(time.Second); err != nil || !rep.Deployed || !rt.tableMergedLocked("A") {
		t.Fatalf("merge plan should deploy over A: err %v, report %+v", err, rep)
	}
}

// A regenerated program is gated like a round's: when an insert into a
// merged table yields a layout with an Error finding — here the pinned A
// outgrows the SRAM — the operation fails as the layout's, and no view
// moves.
func TestEntryOpRefusedWhenRedeployFailsTheGate(t *testing.T) {
	rt, nic, _ := newProbeRig(t, pinTight(mergeProgram(t), "A"), mergeConfig(), nil)
	mergeRound(t, rt, nic)
	was, plan := snapshot(rt, nic), len(rt.activePlan)
	err := rt.InsertEntry("A", p4ir.Entry{Match: []p4ir.MatchValue{{Value: 3}}, Action: "set"})
	if err == nil || !strings.Contains(err.Error(), "core: redeploy of merged layout refused: ") || !strings.Contains(err.Error(), "PL105") {
		t.Fatalf("insert whose regenerated program fails the gate: err = %v, want a PL105 refusal of the layout", err)
	}
	assertUnchanged(t, "insert refused by the gate", was, rt, nic)
	if len(rt.activePlan) != plan {
		t.Errorf("active plan went from %d to %d options", plan, len(rt.activePlan))
	}
	if err := rt.InsertEntry("B", p4ir.Entry{Match: []p4ir.MatchValue{{Value: 11}}, Action: "set"}); err != nil {
		t.Fatalf("a clean insert after the refusal: %v", err)
	}
	if rt.Current().Digest() != nic.Program().Digest() {
		t.Error("runtime and device disagree after the clean insert")
	}
}

// An entry operation changes the original program, and with it what the
// gate's checks compare a candidate against: no verdict from before it is
// found after it. Two hazards, one test each way — a plan vetted clean before the
// operation fails the lint after it, and a program whose digest did not
// change is no longer equivalent to the original.
func TestGateMemoDroppedOnEntryOp(t *testing.T) {
	rt, nic, _ := newProbeRig(t, pinTight(aclProgram(t), "acl1"), reorderConfig(), nil)
	hotACL2, hotACL1 := dropMix(1, "tcp.dport", 23), dropMix(5, "tcp.sport", 1111)
	if rep := mustRound(t, rt, nic, hotACL2); !rep.Deployed || rt.Current().Root != "acl2" {
		t.Fatalf("round 1 should deploy acl2 first: %+v", rep)
	}
	if rep := mustRound(t, rt, nic, hotACL1); !rep.Deployed || rt.Current().Root != "acl1" {
		t.Fatalf("round 2 should deploy acl1 first: %+v", rep)
	}
	acl1First := rt.Current().Clone()
	if !gateRemembers(rt, acl1First) {
		t.Fatal("gate holds no verdict for the deployed program")
	}

	// The device takes a second entry in the pinned acl1 on the fast path;
	// the lint refuses every layout that holds it (PL105).
	if err := rt.InsertEntry("acl1", p4ir.Entry{Match: []p4ir.MatchValue{{Value: 0x1fff}}, Action: "drop_packet"}); err != nil {
		t.Fatal(err)
	}
	if gateRemembers(rt, acl1First) {
		t.Fatal("entry operation left the deployed program's verdict behind")
	}

	// The acl2-first plan was clean in round 1. It is the same plan now,
	// over an original whose pinned table no longer fits the SRAM.
	device := nic.Program().Digest()
	refuse := func() RoundReport {
		t.Helper()
		drive(nic, hotACL2, 4000)
		rep, err := rt.OptimizeOnce(time.Second)
		if err == nil || rep.Deployed || !strings.Contains(rep.DeployError, "PL105") ||
			!slices.ContainsFunc(rep.Diagnostics, func(d string) bool { return strings.Contains(d, "PL105") }) {
			t.Fatalf("round %d should be refused with PL105: err %v, report %+v", rep.Round, err, rep)
		}
		if nic.Program().Digest() != device {
			t.Fatalf("round %d: refused program reached the device", rep.Round)
		}
		return rep
	}
	fresh := refuse()
	// Refused on first sight, and refused again from the memo — with the
	// report a fresh run fills.
	hitsBefore, _ := rt.gate.MemoStats()
	remembered := refuse()
	if hits, _ := rt.gate.MemoStats(); hits != hitsBefore+1 {
		t.Errorf("second refusal did not come from the memo: hits %d -> %d", hitsBefore, hits)
	}
	if remembered.DeployError != fresh.DeployError || !slices.Equal(remembered.Diagnostics, fresh.Diagnostics) {
		t.Errorf("memo hit reports differently:\nfresh      %q %q\nremembered %q %q",
			fresh.DeployError, fresh.Diagnostics, remembered.DeployError, remembered.Diagnostics)
	}

	// Same digest, different verdict: under the deep gate a deployed (so
	// vetted and remembered) program stops being equivalent to the original
	// when an insert widens what the original can write.
	cfg := reorderConfig()
	cfg.DeepVerify = true
	deep, dnic, _ := newProbeRig(t, markProgram(t), cfg, nil)
	if rep := mustRound(t, deep, dnic, hotACL2); !rep.Deployed {
		t.Fatalf("deep round should deploy: %+v", rep)
	}
	deployed := deep.Current().Clone()
	var rep RoundReport
	if !gate(deep, deployed, &rep) {
		t.Fatalf("deployed program no longer passes its own gate: %v", rep.DeployError)
	}
	widen := p4ir.Entry{Match: []p4ir.MatchValue{{Value: 0x0b000002}}, Action: "set", Args: []string{"9"}}
	if err := deep.InsertEntry("mark", widen); err != nil {
		t.Fatal(err)
	}
	var stale RoundReport
	if gate(deep, deployed, &stale) || !strings.Contains(stale.DeployError, "SE003") {
		t.Errorf("program from before the insert passed on its remembered verdict: %q", stale.DeployError)
	}
}

// The stored digest of the deployed layout is what the next round
// compares against; every way the layout can change must leave it equal
// to the layout's real digest (or cleared, to be recomputed).
func TestStoredCurrentDigestNeverStale(t *testing.T) {
	check := func(rt *Runtime, after string) {
		t.Helper()
		rt.mu.Lock()
		defer rt.mu.Unlock()
		want := rt.current.Digest()
		if rt.currentDigest != (p4ir.Digest{}) && rt.currentDigest != want {
			t.Errorf("after %s: stored digest is stale", after)
		}
		if rt.currentDigestLocked() != want || rt.currentDigest != want {
			t.Errorf("after %s: currentDigestLocked disagrees with Current().Digest()", after)
		}
	}

	script := faultinject.NewScript()
	rt, nic, tgt := newProbeRig(t, aclProgram(t), reorderConfig(), script)
	hotACL2, hotACL1 := dropMix(1, "tcp.dport", 23), dropMix(5, "tcp.sport", 1111)
	live := hotACL2 // the verification window samples the live traffic
	guard := DefaultDeployGuard(func(n int) []*packet.Packet { return live.Batch(n) })
	guard.MinRealizedGainFrac = 0.5
	guard.BlacklistRounds = 1
	rt.SetDeployGuard(guard)
	check(rt, "construction")

	script.Queue(faultinject.PointPlan, faultinject.Decision{Scale: 50})
	if rep := mustRound(t, rt, nic, hotACL2); !rep.RolledBack {
		t.Fatalf("expected a rollback: %+v", rep)
	}
	check(rt, "rollback")
	mustRound(t, rt, nic, hotACL2) // blacklisted
	if rep := mustRound(t, rt, nic, hotACL2); !rep.Deployed || rep.RolledBack {
		t.Fatalf("expected a deploy: %+v", rep)
	}
	check(rt, "deploy")

	extra := p4ir.Entry{Match: []p4ir.MatchValue{{Value: 9999}}, Action: "drop_packet"}
	if err := rt.InsertEntry("acl1", extra); err != nil {
		t.Fatal(err)
	}
	rt.mu.Lock()
	cleared := rt.currentDigest == p4ir.Digest{}
	rt.mu.Unlock()
	if !cleared {
		t.Error("fast-path entry operation edited current in place and kept its digest")
	}
	check(rt, "fast-path entry operation")
	if err := rt.InsertEntry("acl1", p4ir.Entry{Match: []p4ir.MatchValue{{Value: 1}}, Action: "no_such_action"}); err == nil {
		t.Fatal("entry with an unknown action was accepted")
	}
	check(rt, "refused entry operation")

	tgt.failCommit = errors.New("commit lost")
	live = hotACL1
	drive(nic, hotACL1, 4000)
	if rep, err := rt.OptimizeOnce(time.Second); err == nil || !strings.Contains(rep.DeployError, "commit failed") {
		t.Fatalf("expected a failed commit: err %v, report %+v", err, rep)
	}
	check(rt, "failed commit")

	// The slow path: an insert into a merged-away table regenerates the
	// deployed program from the original.
	mrt, mnic, _ := newProbeRig(t, mergeProgram(t), mergeConfig(), nil)
	mergeRound(t, mrt, mnic)
	check(mrt, "merge deploy")
	before := mrt.Current().Digest()
	if err := mrt.InsertEntry("A", p4ir.Entry{Match: []p4ir.MatchValue{{Value: 3}}, Action: "set"}); err != nil {
		t.Fatal(err)
	}
	if mrt.Current().Digest() == before {
		t.Fatal("insert into a merged table did not regenerate the deployed program")
	}
	check(mrt, "redeploy after an entry operation")
}
