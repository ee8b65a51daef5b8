package fleet_test

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pipeleon/internal/core"
	"pipeleon/internal/costmodel"
	"pipeleon/internal/faultinject"
	"pipeleon/internal/fleet"
	"pipeleon/internal/nicsim"
	"pipeleon/internal/opt"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/profile"
	"pipeleon/internal/target"
	"pipeleon/internal/trafficgen"
)

// aclProgram mirrors the core test rig: two plain tables then two
// independent ACLs, with acl2's drop rule hot under the test traffic.
func aclProgram(t *testing.T) *p4ir.Program {
	t.Helper()
	return aclProgramOrder(t, "aclprog", []string{"t1", "t2", "acl1", "acl2"}, false)
}

// altProgram is the same pipeline with the hot ACL hoisted to the front —
// the shape the optimizer would produce, used as the rollout target.
func altProgram(t *testing.T) *p4ir.Program {
	t.Helper()
	return aclProgramOrder(t, "aclprog.next", []string{"acl2", "acl1", "t1", "t2"}, false)
}

// ternaryACLProgram is aclProgram with t1 and t2 matching ternary entries:
// the optimizer then merges one of them with an ACL.
func ternaryACLProgram(t *testing.T) *p4ir.Program {
	t.Helper()
	return aclProgramOrder(t, "ternacl", []string{"t1", "t2", "acl1", "acl2"}, true)
}

func aclProgramOrder(t *testing.T, name string, order []string, ternary bool) *p4ir.Program {
	t.Helper()
	mk := func(name, field string) p4ir.TableSpec {
		ts := p4ir.TableSpec{
			Name:          name,
			Keys:          []p4ir.Key{{Field: field, Kind: p4ir.MatchExact, Width: packet.FieldWidth(field)}},
			Actions:       []*p4ir.Action{p4ir.NewAction("set", p4ir.Prim("modify_field", "meta."+name, "1")), p4ir.NoopAction("pass")},
			DefaultAction: "pass",
		}
		if ternary {
			ts.Keys[0].Kind = p4ir.MatchTernary
			ts.Entries = []p4ir.Entry{
				{Priority: 1, Match: []p4ir.MatchValue{{Value: 0, Mask: 0}}, Action: "set"},
				{Priority: 2, Match: []p4ir.MatchValue{{Value: 1, Mask: 0xff}}, Action: "set"},
				{Priority: 3, Match: []p4ir.MatchValue{{Value: 2, Mask: 0xffff}}, Action: "set"},
			}
		}
		return ts
	}
	acl := func(name, field string, dropVal uint64) p4ir.TableSpec {
		return p4ir.TableSpec{
			Name:          name,
			Keys:          []p4ir.Key{{Field: field, Kind: p4ir.MatchExact, Width: packet.FieldWidth(field)}},
			Actions:       []*p4ir.Action{p4ir.DropAction(), p4ir.NoopAction("allow")},
			DefaultAction: "allow",
			Entries: []p4ir.Entry{
				{Match: []p4ir.MatchValue{{Value: dropVal}}, Action: "drop_packet"},
			},
		}
	}
	specs := map[string]p4ir.TableSpec{
		"t1":   mk("t1", "ipv4.dstAddr"),
		"t2":   mk("t2", "ipv4.srcAddr"),
		"acl1": acl("acl1", "tcp.sport", 1111),
		"acl2": acl("acl2", "tcp.dport", 23),
	}
	ordered := make([]p4ir.TableSpec, 0, len(order))
	for _, n := range order {
		ordered = append(ordered, specs[n])
	}
	prog, err := p4ir.ChainTables(name, ordered)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// member is one simulated fleet device with the fault script its target
// reads.
type member struct {
	Name   string
	Target target.Target
	Script *faultinject.Script
}

// newMember builds one simulated fleet member: a nicsim-backed Local
// target wrapped by target.WithFaults with its own script.
func newMember(t *testing.T, name string, prog *p4ir.Program) member {
	t.Helper()
	m, _ := newMemberNIC(t, name, prog)
	return m
}

func newMemberNIC(t *testing.T, name string, prog *p4ir.Program) (member, *nicsim.NIC) {
	t.Helper()
	return newMemberModel(t, name, prog, costmodel.BlueField2())
}

func newMemberModel(t *testing.T, name string, prog *p4ir.Program, pm costmodel.Params) (member, *nicsim.NIC) {
	t.Helper()
	col := profile.NewCollector()
	nic, err := nicsim.New(prog.Clone(), nicsim.Config{
		Params:     pm,
		Collector:  col,
		Instrument: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	script := faultinject.NewScript()
	return member{
		Name:   name,
		Target: target.WithFaults(target.NewLocal(nic, col), script),
		Script: script,
	}, nic
}

// dropTraffic returns a generator whose flows concentrate 80% of packets
// on acl2's drop rule.
func dropTraffic() *trafficgen.Generator {
	gen := trafficgen.New(1, 0)
	gen.AddFlows(trafficgen.DropTargetedFlows(2, 2000, "tcp.dport", 23, 0.8)...)
	return gen
}

// lockedSampler serializes a generator for use as a rollout verification
// sampler (stage deploys measure concurrently).
func lockedSampler(gen *trafficgen.Generator) func(n int) []*packet.Packet {
	var mu sync.Mutex
	return func(n int) []*packet.Packet {
		mu.Lock()
		defer mu.Unlock()
		return gen.Batch(n)
	}
}

// TestStateMachineProbationRelapse walks one device through the failure
// lifecycle, including a relapse during probation.
func TestStateMachineProbationRelapse(t *testing.T) {
	pol := fleet.DefaultHealthPolicy()
	pol.DegradedAfter = 1
	pol.QuarantineAfter = 2
	pol.QuarantineProbes = 1
	pol.ProbationProbes = 2
	pol.MaxProbeBackoff = 0
	ctl := fleet.NewWithPolicy(fleet.Options{}, pol)
	m := newMember(t, "nic0", aclProgram(t))
	if err := ctl.Add(m.Name, m.Target); err != nil {
		t.Fatal(err)
	}
	state := func() fleet.State {
		st, err := ctl.DeviceState("nic0")
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	// Two probe failures: Healthy → Degraded → Quarantined.
	m.Script.Queue(faultinject.PointCounters, faultinject.Decision{Fail: true}, faultinject.Decision{Fail: true})
	ctl.ProbeAll()
	if got := state(); got != fleet.Degraded {
		t.Fatalf("after 1 failure: %s, want degraded", got)
	}
	ctl.ProbeAll()
	if got := state(); got != fleet.Quarantined {
		t.Fatalf("after 2 failures: %s, want quarantined", got)
	}

	// Sit-out round, then probation begins — and a failure during
	// probation re-quarantines.
	ctl.ProbeAll() // serves the sit-out, no probe issued
	m.Script.Queue(faultinject.PointCounters, faultinject.Decision{Fail: true})
	ctl.ProbeAll() // Quarantined → Recovering, probation probe fails
	if got := state(); got != fleet.Quarantined {
		t.Fatalf("relapse during probation: %s, want quarantined", got)
	}

	// Clean probation: sit-out, then two successes re-admit.
	ctl.ProbeAll()
	ctl.ProbeAll()
	if got := state(); got != fleet.Recovering {
		t.Fatalf("first clean probation probe: %s, want recovering", got)
	}
	ctl.ProbeAll()
	if got := state(); got != fleet.Healthy {
		t.Fatalf("after probation: %s, want healthy", got)
	}
	st := ctl.Status()
	if st.Devices[0].Quarantines != 2 {
		t.Errorf("quarantines = %d, want 2", st.Devices[0].Quarantines)
	}
}

// panicTarget is a Target whose probes panic while broken — the
// supervised loop must isolate the panic and charge the restart budget.
type panicTarget struct {
	target.Target
	mu     sync.Mutex
	broken bool
}

func (p *panicTarget) setBroken(b bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.broken = b
}

func (p *panicTarget) Profile(reset bool) (*profile.Profile, error) {
	p.mu.Lock()
	broken := p.broken
	p.mu.Unlock()
	if broken {
		panic("backend corrupted")
	}
	return p.Target.Profile(reset)
}

// TestRestartBudgetQuarantinesPanickingDevice checks panic isolation: a
// panicking backend never crashes the controller, is restarted up to the
// budget, then permanently quarantined until an operator Recover.
func TestRestartBudgetQuarantinesPanickingDevice(t *testing.T) {
	pol := fleet.DefaultHealthPolicy()
	pol.RestartBudget = 2
	pol.QuarantineAfter = 10 // only the restart budget should quarantine
	pol.MaxProbeBackoff = 0
	pol.ProbationProbes = 1
	pol.QuarantineProbes = 1
	ctl := fleet.NewWithPolicy(fleet.Options{}, pol)

	m := newMember(t, "nic0", aclProgram(t))
	pt := &panicTarget{Target: m.Target, broken: true}
	if err := ctl.Add("nic0", pt); err != nil {
		t.Fatal(err)
	}

	// Budget of 2: panics 1-2 are absorbed, the 3rd quarantines for good.
	for i := 0; i < 3; i++ {
		ctl.ProbeAll()
	}
	st := ctl.Status()
	d := st.Devices[0]
	if d.State != "quarantined" || !d.Permanent {
		t.Fatalf("device = %+v, want permanent quarantine", d)
	}
	if d.Restarts != 3 {
		t.Errorf("restarts = %d, want 3", d.Restarts)
	}
	if !strings.Contains(d.LastError, "restart budget") {
		t.Errorf("last error %q does not mention the budget", d.LastError)
	}

	// Probes no longer reach a permanently quarantined device.
	probes := d.Probes
	ctl.ProbeAll()
	if got := ctl.Status().Devices[0].Probes; got != probes {
		t.Errorf("permanently quarantined device was probed (%d -> %d)", probes, got)
	}

	// Operator recovery after fixing the backend re-admits it.
	pt.setBroken(false)
	if err := ctl.Recover("nic0"); err != nil {
		t.Fatal(err)
	}
	ctl.ProbeAll()
	if got := ctl.Status().Devices[0].State; got != "healthy" {
		t.Errorf("after recover+probe: %s, want healthy", got)
	}
}

// TestOperatorQuarantineExcludesDevice pins the p4cctl fleet quarantine
// path: a forced quarantine keeps the device out of rollouts.
func TestOperatorQuarantineExcludesDevice(t *testing.T) {
	progA := aclProgram(t)
	ctl := fleet.New(fleet.Options{})
	for i := 0; i < 3; i++ {
		m := newMember(t, fmt.Sprintf("nic%d", i), progA)
		if err := ctl.Add(m.Name, m.Target); err != nil {
			t.Fatal(err)
		}
	}
	if err := ctl.Quarantine("nic1"); err != nil {
		t.Fatal(err)
	}
	rep, err := ctl.Rollout(altProgram(t), fleet.DefaultRolloutConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Committed) != 2 || len(rep.Skipped) != 1 || rep.Skipped[0] != "nic1" {
		t.Fatalf("committed=%v skipped=%v, want nic1 skipped", rep.Committed, rep.Skipped)
	}
	if err := ctl.Quarantine("nope"); err == nil {
		t.Error("quarantining an unknown device succeeded")
	}
}

// reorderOnly is the optimizer configuration of the optimization-round
// tests: every pipelet searched, reordering the only rewrite, so the one
// profitable plan is promoting the hot ACL.
func reorderOnly() opt.Config {
	cfg := opt.DefaultConfig()
	cfg.TopKFrac = 1
	cfg.EnableCache = false
	cfg.EnableMerge = false
	return cfg
}

// TestOptimizeAndRolloutSharesPlans runs a fleet optimization round over
// three same-model devices: the canary's profile is searched once, by the
// one Runtime the controller holds for the model, and the optimized program
// (hot ACL promoted) rolls out to the whole group.
func TestOptimizeAndRolloutSharesPlans(t *testing.T) {
	progA := aclProgram(t)
	ctl := fleet.New(fleet.Options{Optimizer: reorderOnly(), Logf: t.Logf})

	gen := dropTraffic()
	var members []member
	for i := 0; i < 3; i++ {
		m, nic := newMemberNIC(t, fmt.Sprintf("nic%d", i), progA)
		nic.Measure(gen.Batch(4000)) // build up each device's profile
		members = append(members, m)
		if err := ctl.Add(m.Name, m.Target); err != nil {
			t.Fatal(err)
		}
	}

	rcfg := fleet.DefaultRolloutConfig(lockedSampler(gen))
	rcfg.Verify.MaxRegression = 1.0
	// Status is served beside the round: it reads the canary Runtime's
	// counters while the round runs (the race detector's business).
	stop, polled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(polled)
		for {
			select {
			case <-stop:
				return
			default:
				_ = ctl.Status()
				time.Sleep(time.Millisecond)
			}
		}
	}()
	reports, err := ctl.OptimizeAndRollout(progA, rcfg)
	close(stop)
	<-polled
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 {
		t.Fatalf("reports = %d, want 1 model group", len(reports))
	}
	if n := len(reports[0].Committed); n != 3 {
		t.Fatalf("committed = %d devices, want 3: %+v", n, reports[0])
	}
	for _, m := range members {
		if root := m.Target.Program().Root; root != "acl2" {
			t.Errorf("%s root = %q, want acl2 promoted", m.Name, root)
		}
	}
	if ss := ctl.Status().OptSearch; ss.Sessions != 1 || ss.PoolMisses != 1 || ss.PoolHits != 0 || ss.Rounds != 1 {
		t.Errorf("canaries = %d runtimes (%d built, %d reused), %d searches, want one search on one runtime",
			ss.Sessions, ss.PoolMisses, ss.PoolHits, ss.Rounds)
	}
}

// TestRepeatedOptimizeConverges pins what stands where the plan cache
// stood: a second optimization round over the same traffic runs on the
// same canary Runtime, keeps the same program, and Rollout's whole-digest
// test turns that into zero deploys.
func TestRepeatedOptimizeConverges(t *testing.T) {
	progA := aclProgram(t)
	ctl := fleet.New(fleet.Options{Optimizer: reorderOnly(), Logf: t.Logf})
	gen := dropTraffic()
	var canary *nicsim.NIC
	for i := 0; i < 3; i++ {
		m, nic := newMemberNIC(t, fmt.Sprintf("nic%d", i), progA)
		nic.Measure(gen.Batch(4000))
		if i == 0 {
			canary = nic
		}
		if err := ctl.Add(m.Name, m.Target); err != nil {
			t.Fatal(err)
		}
	}
	// Unverified deploys: the canary's windows hold only the traffic below.
	rcfg := fleet.DefaultRolloutConfig(nil)

	first, err := ctl.OptimizeAndRollout(progA, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 1 || len(first[0].Committed) != 3 {
		t.Fatalf("first round: %+v, want one report committing 3 devices", first)
	}
	before := ctl.Status()

	// A round closes the canary's window; the next one sees the same mix.
	canary.Measure(gen.Batch(4000))
	second, err := ctl.OptimizeAndRollout(progA, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(second) != 1 {
		t.Fatalf("second round: %d reports, want 1", len(second))
	}
	rep := second[0]
	if rep.Fingerprint != first[0].Fingerprint {
		t.Errorf("second round planned %s, first %s: same profile, different program", rep.Fingerprint, first[0].Fingerprint)
	}
	if rep.Attempted != 0 || len(rep.Results) != 3 {
		t.Fatalf("second round attempted %d deploys over %d results, want 0 over 3", rep.Attempted, len(rep.Results))
	}
	for _, r := range rep.Results {
		if !r.Converged {
			t.Errorf("%s not marked converged: %+v", r.Device, r)
		}
	}
	after := ctl.Status()
	if ss := after.OptSearch; ss.Sessions != 1 || ss.PoolMisses != 1 || ss.PoolHits != 1 {
		t.Errorf("canaries = %d runtimes (%d built, %d reused), want one runtime serving both rounds",
			ss.Sessions, ss.PoolMisses, ss.PoolHits)
	}
	for i, d := range after.Devices {
		if d.Deploys != before.Devices[i].Deploys {
			t.Errorf("%s deploys %d -> %d on a converged round", d.Name, before.Devices[i].Deploys, d.Deploys)
		}
	}
}

// TestBaseHashedOnceAndAgainAfterAnEntryOp: rounds over one base program
// hash it once. A rename in place, which moves no entry version, is the
// probe: the controller does not look at the program again, so the canary
// planning from it is kept. An entry operation on base moves its version:
// the next round hashes it, finds a new program and rebuilds the canary,
// which deploys base as it now is.
func TestBaseHashedOnceAndAgainAfterAnEntryOp(t *testing.T) {
	base := aclProgram(t)
	ctl := fleet.New(fleet.Options{Optimizer: reorderOnly(), Logf: t.Logf})
	gen := dropTraffic()
	var nics []*nicsim.NIC
	for i := 0; i < 2; i++ {
		m, nic := newMemberNIC(t, fmt.Sprintf("nic%d", i), base)
		nics = append(nics, nic)
		if err := ctl.Add(m.Name, m.Target); err != nil {
			t.Fatal(err)
		}
	}
	rcfg := fleet.DefaultRolloutConfig(nil)
	round := func(name string, built, reused uint64) {
		t.Helper()
		for _, nic := range nics {
			nic.Measure(gen.Batch(4000))
		}
		if _, err := ctl.OptimizeAndRollout(base, rcfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ss := ctl.Status().OptSearch; ss.PoolMisses != built || ss.PoolHits != reused {
			t.Fatalf("%s: canaries built %d, reused %d; want %d and %d", name, ss.PoolMisses, ss.PoolHits, built, reused)
		}
	}
	round("first round", 1, 0)
	base.Name = "renamed in place"
	round("round over the same base", 1, 1)

	if _, err := base.InsertEntry("acl1", p4ir.Entry{Match: []p4ir.MatchValue{{Value: 2222}}, Action: "drop_packet"}); err != nil {
		t.Fatal(err)
	}
	round("round after an entry operation", 2, 1)
	if !slices.ContainsFunc(nics, func(nic *nicsim.NIC) bool { return nic.ProgramDigest() == base.Digest() }) {
		t.Fatal("the rebuilt canary does not run base with its new entry")
	}
}

// TestOptimizeContinuesPastFailedGroup: one model's canary failing to
// profile must not keep the other model's devices from being optimized.
// Groups run in model-name order, so the failing agiliocx group is first.
func TestOptimizeContinuesPastFailedGroup(t *testing.T) {
	progA := aclProgram(t)
	ctl := fleet.New(fleet.Options{Optimizer: reorderOnly(), Logf: t.Logf})
	gen := dropTraffic()
	dead, _ := newMemberModel(t, "agilio0", progA, costmodel.AgilioCX())
	live, nic := newMemberModel(t, "bf0", progA, costmodel.BlueField2())
	nic.Measure(gen.Batch(4000))
	for _, m := range []member{dead, live} {
		if err := ctl.Add(m.Name, m.Target); err != nil {
			t.Fatal(err)
		}
	}
	dead.Script.Queue(faultinject.PointCounters, faultinject.Decision{Fail: true})

	reports, err := ctl.OptimizeAndRollout(progA, fleet.DefaultRolloutConfig(nil))
	if err == nil || !strings.Contains(err.Error(), "agiliocx") {
		t.Fatalf("err = %v, want the agiliocx group's planning failure", err)
	}
	if dead.Script.Pending(faultinject.PointCounters) != 0 {
		t.Fatal("the scripted probe failure never fired")
	}
	if len(reports) != 1 {
		t.Fatalf("reports = %d, want the bluefield2 group's rollout", len(reports))
	}
	committed := false
	for _, name := range reports[0].Committed {
		committed = committed || name == "bf0"
	}
	if !committed || live.Target.Program().Root != "acl2" {
		t.Errorf("bf0 committed=%v root=%q, want the optimized program committed: %+v",
			committed, live.Target.Program().Root, reports[0])
	}
	if ss := ctl.Status().OptSearch; ss.Sessions != 2 || ss.PoolMisses != 2 {
		t.Errorf("canaries = %d runtimes (%d built), want one per model", ss.Sessions, ss.PoolMisses)
	}
}

// TestRolloutToCanaryRebuildsItsRuntime: a Rollout of another program that
// deploys to the canary leaves its Runtime reading counters through a
// layout the device no longer runs. The next round rebuilds the Runtime on
// the same device, which redeploys base, and plans again the round after.
func TestRolloutToCanaryRebuildsItsRuntime(t *testing.T) {
	progA := aclProgram(t)
	ctl := fleet.New(fleet.Options{Optimizer: reorderOnly(), Logf: t.Logf})
	gen := dropTraffic()
	var nics []*nicsim.NIC
	for i := 0; i < 2; i++ {
		m, nic := newMemberNIC(t, fmt.Sprintf("nic%d", i), progA)
		nics = append(nics, nic)
		if err := ctl.Add(m.Name, m.Target); err != nil {
			t.Fatal(err)
		}
	}
	rcfg := fleet.DefaultRolloutConfig(nil)
	round := func(name string, wantReports int) {
		t.Helper()
		nics[0].Measure(gen.Batch(4000))
		reports, err := ctl.OptimizeAndRollout(progA, rcfg)
		if err != nil || len(reports) != wantReports {
			t.Fatalf("%s: %d reports (%v), want %d", name, len(reports), err, wantReports)
		}
	}
	round("round 1", 1)
	foreign := aclProgramOrder(t, "aclprog.foreign", []string{"t2", "t1", "acl1", "acl2"}, false)
	if rep, err := ctl.Rollout(foreign, rcfg); err != nil || len(rep.Committed) != 2 {
		t.Fatalf("foreign rollout: %+v %v", rep, err)
	}
	round("round 2", 0)
	if got := nics[0].Program().Digest(); got != progA.Digest() {
		t.Errorf("rebuilt canary runs %s, want base", got)
	}
	round("round 3", 1)
	for i, nic := range nics {
		if root := nic.Program().Root; root != "acl2" {
			t.Errorf("nic%d root = %q, want acl2 promoted", i, root)
		}
	}
	if ss := ctl.Status().OptSearch; ss.Sessions != 1 || ss.PoolMisses != 2 || ss.PoolHits != 1 {
		t.Errorf("canaries = %d runtimes (%d built, %d reused), want a rebuild after the foreign rollout",
			ss.Sessions, ss.PoolMisses, ss.PoolHits)
	}
}

// TestTwoModelsKeepTheirOwnPlans: a model's rollout covers that model's
// devices only, so neither canary sees the other model's program deployed
// to it. Both Runtimes serve every round after the first, and the rounds
// after the first deploy nothing.
func TestTwoModelsKeepTheirOwnPlans(t *testing.T) {
	progA := aclProgram(t)
	ctl := fleet.New(fleet.Options{Optimizer: reorderOnly(), Logf: t.Logf})
	gen := dropTraffic()
	var nics []*nicsim.NIC
	for i, pm := range []costmodel.Params{costmodel.AgilioCX(), costmodel.AgilioCX(), costmodel.BlueField2(), costmodel.BlueField2()} {
		m, nic := newMemberModel(t, fmt.Sprintf("nic%d", i), progA, pm)
		nics = append(nics, nic)
		if err := ctl.Add(m.Name, m.Target); err != nil {
			t.Fatal(err)
		}
	}
	rcfg := fleet.DefaultRolloutConfig(nil)
	var deploys []uint64
	for round := 1; round <= 3; round++ {
		for _, nic := range nics {
			nic.Measure(gen.Batch(4000))
		}
		reports, err := ctl.OptimizeAndRollout(progA, rcfg)
		if err != nil || len(reports) != 2 {
			t.Fatalf("round %d: %d reports (%v), want one per model", round, len(reports), err)
		}
		for _, rep := range reports {
			if len(rep.Results) != 2 || len(rep.Committed) != 2 {
				t.Errorf("round %d: rollout %s covered %d devices, committed %v; want the model's 2", round, rep.Fingerprint, len(rep.Results), rep.Committed)
			}
		}
		st := ctl.Status()
		if ss := st.OptSearch; ss.Sessions != 2 || ss.PoolMisses != 2 || ss.PoolHits != uint64(2*(round-1)) {
			t.Errorf("round %d: canaries = %d runtimes (%d built, %d reused), want 2 built and %d reused",
				round, ss.Sessions, ss.PoolMisses, ss.PoolHits, 2*(round-1))
		}
		for i, nic := range nics {
			if root := nic.Program().Root; root != "acl2" {
				t.Errorf("round %d: nic%d root = %q, want acl2 promoted", round, i, root)
			}
		}
		var now []uint64
		for _, d := range st.Devices {
			now = append(now, d.Deploys)
		}
		if round > 1 && !slices.Equal(now, deploys) {
			t.Errorf("round %d: device deploys %v -> %v on a converged round", round, deploys, now)
		}
		deploys = now
	}
}

// TestRunSupervisedLoops smoke-tests the background probe loops: every
// device is probed on its own goroutine and the loops drain on stop.
func TestRunSupervisedLoops(t *testing.T) {
	ctl := fleet.New(fleet.Options{})
	progA := aclProgram(t)
	for i := 0; i < 4; i++ {
		m := newMember(t, fmt.Sprintf("nic%d", i), progA)
		if err := ctl.Add(m.Name, m.Target); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		ctl.Run(2*time.Millisecond, stop)
		close(done)
	}()
	deadline := time.After(5 * time.Second)
	for {
		st := ctl.Status()
		probed := 0
		for _, d := range st.Devices {
			if d.Probes > 0 {
				probed++
			}
		}
		if probed == 4 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("devices not all probed in time: %+v", st.Devices)
		case <-time.After(5 * time.Millisecond):
		}
	}
	close(stop)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not stop")
	}
	if st := ctl.Status(); st.Healthy != 4 {
		t.Errorf("healthy = %d, want 4", st.Healthy)
	}
}

// TestCanaryPlansFromTranslatedCounters: a canary that already runs an
// optimized layout counts its traffic on the deployed tables — here a merged
// table stands where two base tables stood, so those count nothing. The
// fleet round must read the counters through the layout's counter map, as a
// single-device core.Runtime does: searched raw over the base program they
// plan another program.
func TestCanaryPlansFromTranslatedCounters(t *testing.T) {
	base := ternaryACLProgram(t)
	cfg := opt.DefaultConfig()
	cfg.TopKFrac = 1
	cfg.EnableCache = false
	ctl := fleet.New(fleet.Options{Optimizer: cfg, Logf: t.Logf})
	m, nic := newMemberNIC(t, "nic0", base)
	if err := ctl.Add(m.Name, m.Target); err != nil {
		t.Fatal(err)
	}
	// The single-device reference: a Runtime on an identical emulator fed
	// the same packets (two generators with one seed).
	twinCol := profile.NewCollector()
	twin, err := nicsim.New(base.Clone(), nicsim.Config{Params: costmodel.BlueField2(), Collector: twinCol, Instrument: true})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.NewRuntime(base, target.NewLocal(twin, twinCol), cfg)
	if err != nil {
		t.Fatal(err)
	}
	fleetGen, twinGen := dropTraffic(), dropTraffic()
	traffic := func() {
		nic.Measure(fleetGen.Batch(2000))
		twin.Measure(twinGen.Batch(2000))
	}
	round := func(name string) {
		t.Helper()
		if _, err := ctl.OptimizeAndRollout(base, fleet.DefaultRolloutConfig(nil)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := rt.OptimizeOnce(time.Second); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, d := rt.Current(); m.Target.Program().Digest() != d {
			t.Fatalf("%s: the canary and the single-device runtime run different programs", name)
		}
	}

	traffic()
	round("round 1")
	merged := false
	for name := range m.Target.Program().Tables {
		merged = merged || strings.HasPrefix(name, "__merged__")
	}
	if !merged {
		t.Fatalf("round 1 deployed no merged table: %v", m.Target.Program().Tables)
	}

	// The next window holds only traffic on the deployed layout.
	if _, err := m.Target.Profile(true); err != nil {
		t.Fatal(err)
	}
	// What the canary's raw counters plan over the base program. The
	// Runtime's translated profile carries no flow cardinality, so neither
	// does this one: the two differ in the translation alone.
	traffic()
	raw, err := m.Target.Profile(false)
	if err != nil {
		t.Fatal(err)
	}
	raw.FlowCardinality = 0
	s, err := opt.NewSession(base, costmodel.BlueField2(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, rw, err := s.SearchAndApply(raw)
	if err != nil {
		t.Fatal(err)
	}
	untranslated := base.Digest()
	if rw != nil {
		untranslated = rw.Digest
	}

	round("round 2")
	if m.Target.Program().Digest() == untranslated {
		t.Fatalf("the canary runs what its raw counters plan (%v): the test no longer tells the two apart", res.Plan)
	}
}
