package target_test

import (
	"slices"
	"strings"
	"testing"
	"time"

	"pipeleon/internal/controlplane"
	"pipeleon/internal/core"
	"pipeleon/internal/costmodel"
	"pipeleon/internal/faultinject"
	"pipeleon/internal/nicsim"
	"pipeleon/internal/opt"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/profile"
	"pipeleon/internal/target"
	"pipeleon/internal/target/remote"
	"pipeleon/internal/trafficgen"
)

// Conformance suite: every backend — local emulator, remote loopback nicd,
// and recorded-trace replay — must expose identical transactional deploy
// semantics, entry management, and measurement/profile plumbing, so the
// runtime loop cannot tell them apart.

// confProgram builds the four-table ACL program the suite deploys.
func confProgram(t *testing.T) *p4ir.Program {
	t.Helper()
	mk := func(name, field string) p4ir.TableSpec {
		return p4ir.TableSpec{
			Name:          name,
			Keys:          []p4ir.Key{{Field: field, Kind: p4ir.MatchExact, Width: packet.FieldWidth(field)}},
			Actions:       []*p4ir.Action{p4ir.NewAction("set", p4ir.Prim("modify_field", "meta."+name, "1")), p4ir.NoopAction("pass")},
			DefaultAction: "pass",
		}
	}
	acl := func(name, field string, dropVal uint64) p4ir.TableSpec {
		return p4ir.TableSpec{
			Name:          name,
			Keys:          []p4ir.Key{{Field: field, Kind: p4ir.MatchExact, Width: packet.FieldWidth(field)}},
			Actions:       []*p4ir.Action{p4ir.DropAction(), p4ir.NoopAction("allow")},
			DefaultAction: "allow",
			MaxEntries:    2,
			Entries: []p4ir.Entry{
				{Match: []p4ir.MatchValue{{Value: dropVal}}, Action: "drop_packet"},
			},
		}
	}
	prog, err := p4ir.ChainTables("confprog", []p4ir.TableSpec{
		mk("t1", "ipv4.dstAddr"),
		mk("t2", "ipv4.srcAddr"),
		acl("acl1", "tcp.sport", 1111),
		acl("acl2", "tcp.dport", 23),
	})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// altProgram is the same program with the two ACLs promoted — a plausible
// optimizer output to deploy over the original.
func altProgram(t *testing.T) *p4ir.Program {
	t.Helper()
	prog := confProgram(t)
	// Rebuild with the ACLs first.
	mkOrder := []string{"acl2", "acl1", "t1", "t2"}
	var specs []p4ir.TableSpec
	for _, name := range mkOrder {
		tbl := prog.Tables[name]
		specs = append(specs, p4ir.TableSpec{
			Name:          name,
			Keys:          tbl.Keys,
			Actions:       tbl.Actions,
			DefaultAction: tbl.DefaultAction,
			MaxEntries:    tbl.MaxEntries,
			Entries:       tbl.Entries,
		})
	}
	alt, err := p4ir.ChainTables("confprog", specs)
	if err != nil {
		t.Fatal(err)
	}
	return alt
}

func newLocalTarget(t *testing.T, prog *p4ir.Program) *target.Local {
	t.Helper()
	col := profile.NewCollector()
	nic, err := nicsim.New(prog, nicsim.Config{
		Params:     costmodel.BlueField2(),
		Collector:  col,
		Instrument: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return target.NewLocal(nic, col)
}

// newRemoteTarget spins a loopback device-only server over dev and dials
// it — the full wire path with no separate process.
func newRemoteTarget(t *testing.T, dev target.Target) target.Target {
	t.Helper()
	srv, err := controlplane.NewServer("127.0.0.1:0", nil, nil, controlplane.WithDevice(dev))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	r, err := remote.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// newReplayTarget records the conformance exercise against a local backend,
// then replays the captured trace — so record/replay fidelity is itself
// under test.
func newReplayTarget(t *testing.T, prog *p4ir.Program) target.Target {
	t.Helper()
	rec := target.NewRecorder(newLocalTarget(t, prog), "conformance")
	exercise(t, rec, prog, false)
	rp, err := target.NewReplayer(rec.Trace(), prog)
	if err != nil {
		t.Fatal(err)
	}
	return rp
}

func confBatch(n int) []*packet.Packet {
	gen := trafficgen.New(11, 0)
	gen.AddFlows(trafficgen.DropTargetedFlows(12, 200, "tcp.dport", 23, 0.5)...)
	return gen.Batch(n)
}

// digestIsProgram fails unless the digest the backend names its program by
// is that program's. It is asked after every step that may change the
// program, so a backend that keeps the digest of one it no longer runs is
// caught at the step that left it stale.
func digestIsProgram(t *testing.T, tgt target.Target, step string) {
	t.Helper()
	d, err := tgt.Digest()
	if err != nil {
		t.Fatalf("after %s: Digest: %v", step, err)
	}
	if prog := tgt.Program(); prog == nil || d != prog.Digest() {
		t.Fatalf("after %s: Digest() is not Program().Digest()", step)
	}
}

// exercise runs the shared conformance sequence. deepChecks enables the
// assertions that examine live device state; the recording pass runs with
// them on too, so the replayed trace holds exactly the responses the
// sequence consumes.
func exercise(t *testing.T, tgt target.Target, orig *p4ir.Program, isReplay bool) {
	t.Helper()
	step := func(name string) { t.Helper(); digestIsProgram(t, tgt, name) }

	// Capabilities must describe a plausible device.
	cap := tgt.Capabilities()
	if cap.Cores <= 0 || cap.LineRateGbps <= 0 {
		t.Fatalf("implausible capabilities: %+v", cap)
	}
	if cap.Params.Name != cap.Model {
		t.Errorf("capabilities model %q != params name %q", cap.Model, cap.Params.Name)
	}

	// Commit/Rollback with nothing staged must refuse.
	if err := tgt.Commit(); err == nil || !strings.Contains(err.Error(), "no staged") {
		t.Errorf("commit with no checkpoint: err=%v, want ErrNoCheckpoint", err)
	}
	if err := tgt.Rollback(); err == nil || !strings.Contains(err.Error(), "no staged") {
		t.Errorf("rollback with no checkpoint: err=%v, want ErrNoCheckpoint", err)
	}

	// The original program is running.
	if got := tgt.Program(); got == nil || got.Root != orig.Root {
		t.Fatalf("initial program root = %v, want %q", rootOf(got), orig.Root)
	}
	step("start")

	// Deploy → staged program visible → Rollback restores the original.
	alt := altProgram(t)
	if err := tgt.Deploy(alt); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	step("deploy")
	if got := tgt.Program(); rootOf(got) != alt.Root {
		t.Fatalf("after deploy, root = %q, want %q", rootOf(got), alt.Root)
	} else if got == alt {
		// core.Runtime holds what it deployed as its view of the layout
		// and edits it in place on entry operations.
		t.Fatal("Deploy kept the caller's program instead of a copy")
	}
	if err := tgt.Rollback(); err != nil {
		t.Fatalf("rollback: %v", err)
	}
	step("rollback")
	if got := tgt.Program(); rootOf(got) != orig.Root {
		t.Fatalf("after rollback, root = %q, want %q", rootOf(got), orig.Root)
	}
	// The checkpoint is consumed: a second rollback refuses.
	if err := tgt.Rollback(); err == nil {
		t.Error("second rollback should fail with no checkpoint")
	}

	// Deploy → Commit pins the new program; the checkpoint is gone.
	if err := tgt.Deploy(alt); err != nil {
		t.Fatalf("redeploy: %v", err)
	}
	step("redeploy")
	if err := tgt.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	step("commit")
	if got := tgt.Program(); rootOf(got) != alt.Root {
		t.Fatalf("after commit, root = %q, want %q", rootOf(got), alt.Root)
	}
	if err := tgt.Rollback(); err == nil {
		t.Error("rollback after commit should fail")
	}
	step("refused rollback")

	// Measurement: the batch is processed and aggregated.
	batch := confBatch(1000)
	m, err := tgt.Measure(batch)
	if err != nil {
		t.Fatalf("measure: %v", err)
	}
	if m.Packets != len(batch) {
		t.Errorf("measured %d packets, want %d", m.Packets, len(batch))
	}
	if m.MeanLatencyNs <= 0 || m.ThroughputGbps <= 0 {
		t.Errorf("implausible measurement: %+v", m)
	}
	// Half the traffic hits acl2's drop rule.
	if m.DropRate < 0.2 || m.DropRate > 0.8 {
		t.Errorf("drop rate %v, want ~0.5", m.DropRate)
	}

	// Profiling: the measured batch left counters in the window; closing
	// the window (reset=true) yields them, and the next window is fresh.
	prof, err := tgt.Profile(true)
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	if prof == nil {
		t.Fatal("nil profile")
	}
	if got := prof.TableTotal("acl2"); got == 0 {
		t.Errorf("profile has no acl2 traffic after measuring %d packets", len(batch))
	}

	// CacheStats must answer (no caches deployed → empty).
	if _, err := tgt.CacheStats(); err != nil {
		t.Fatalf("cachestats: %v", err)
	}

	// Entry management against the deployed program.
	if err := tgt.InsertEntry("acl1", p4ir.Entry{Match: []p4ir.MatchValue{{Value: 9999}}, Action: "drop_packet"}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	step("insert")
	if err := tgt.ModifyEntry("acl1", []p4ir.MatchValue{{Value: 9999}}, "allow", nil); err != nil {
		t.Fatalf("modify: %v", err)
	}
	step("modify")
	if err := tgt.DeleteEntry("acl1", []p4ir.MatchValue{{Value: 9999}}); err != nil {
		t.Fatalf("delete: %v", err)
	}
	step("delete")
	if err := tgt.InsertEntry("no_such_table", p4ir.Entry{}); err == nil {
		t.Error("insert into unknown table should fail")
	}
	// Insert into a full table is refused by every backend: the ACLs hold
	// two entries and ship with one.
	if err := tgt.InsertEntry("acl2", p4ir.Entry{Match: []p4ir.MatchValue{{Value: 8080}}, Action: "drop_packet"}); err != nil {
		t.Fatalf("insert up to capacity: %v", err)
	}
	step("insert up to capacity")
	if err := tgt.InsertEntry("acl2", p4ir.Entry{Match: []p4ir.MatchValue{{Value: 8081}}, Action: "drop_packet"}); err == nil {
		t.Error("insert into a full table should fail")
	} else if n := len(tgt.Program().Tables["acl2"].Entries); n != 2 {
		t.Errorf("refused insert left %d entries in acl2, want 2", n)
	}
	step("refused insert")

	if isReplay {
		// The replayed sequence must have consumed exactly the recording.
		if rp, ok := tgt.(*target.Replayer); ok {
			if ms, _, _ := rp.Remaining(); ms != 0 {
				t.Errorf("replay left %d recorded measurements unconsumed", ms)
			}
		}
	}
}

func rootOf(p *p4ir.Program) string {
	if p == nil {
		return "<nil>"
	}
	return p.Root
}

func TestConformanceLocal(t *testing.T) {
	prog := confProgram(t)
	tgt := newLocalTarget(t, prog)
	defer tgt.Close()
	exercise(t, tgt, prog, false)
}

func TestConformanceRemote(t *testing.T) {
	prog := confProgram(t)
	tgt := newRemoteTarget(t, newLocalTarget(t, prog))
	defer tgt.Close()
	exercise(t, tgt, prog, false)
}

func TestConformanceReplay(t *testing.T) {
	prog := confProgram(t)
	tgt := newReplayTarget(t, prog)
	defer tgt.Close()
	exercise(t, tgt, prog, true)
}

// faultCase drives one device fault through tgt, queueing its decisions
// on script, the injector tgt is wrapped with.
type faultCase func(t *testing.T, tgt target.Target, script *faultinject.Script)

// TestConformanceDeviceFaults: a device fault means one thing on every
// backend target.WithFaults wraps — the emulator, a loopback remote
// (faulted on the device side of the wire) and a replayed trace. A deploy
// or rollback the device delays, refuses or silently drops leaves Digest()
// naming the program the device runs, on the device and across the wire,
// where the remote holds the digest of the program it sent, not of the one
// that runs after a silent fault; the transaction stays where the fault
// leaves it. A refused counter read never reaches the device; a zeroed one
// still closes the device's window.
func TestConformanceDeviceFaults(t *testing.T) {
	backends := []struct {
		name string
		run  func(t *testing.T, c faultCase)
	}{
		{"local", func(t *testing.T, c faultCase) {
			script := faultinject.NewScript()
			c(t, target.WithFaults(newLocalTarget(t, confProgram(t)), script), script)
		}},
		{"remote", func(t *testing.T, c faultCase) {
			script := faultinject.NewScript()
			tgt := newRemoteTarget(t, target.WithFaults(newLocalTarget(t, confProgram(t)), script))
			defer tgt.Close()
			c(t, tgt, script)
		}},
		{"replay", func(t *testing.T, c faultCase) {
			// The case runs once over a recording of the emulator, so the
			// trace holds exactly the device calls the faults let through,
			// then again over the replay of that trace.
			prog := confProgram(t)
			rec := target.NewRecorder(newLocalTarget(t, prog), "faults")
			script := faultinject.NewScript()
			c(t, target.WithFaults(rec, script), script)
			rp, err := target.NewReplayer(rec.Trace(), prog)
			if err != nil {
				t.Fatal(err)
			}
			script = faultinject.NewScript()
			c(t, target.WithFaults(rp, script), script)
			if ms, ps, _ := rp.Remaining(); ms != 0 || ps != 0 {
				t.Errorf("replay left %d measurements and %d profiles unconsumed", ms, ps)
			}
		}},
	}
	var cases []struct {
		name string
		run  faultCase
	}
	add := func(name string, run faultCase) {
		cases = append(cases, struct {
			name string
			run  faultCase
		}{name, run})
	}
	for _, f := range []struct {
		name string
		d    faultinject.Decision
	}{{"delay", faultinject.Decision{Delay: time.Millisecond}}, {"fail", faultinject.Decision{Fail: true}}, {"silent", faultinject.Decision{Silent: true}}} {
		add("deploy-"+f.name, deployFaultCase(f.d))
		add("rollback-"+f.name, rollbackFaultCase(f.d))
	}
	add("profile-fail", profileFaultCase(faultinject.Decision{Fail: true}))
	add("profile-zero", profileFaultCase(faultinject.Decision{Zero: true}))
	for _, b := range backends {
		for _, c := range cases {
			t.Run(b.name+"/"+c.name, func(t *testing.T) { b.run(t, c.run) })
		}
	}
}

// wantNoStaged fails unless err is the refusal of a Commit or Rollback with
// nothing staged (by message: over the wire the sentinel is a string).
func wantNoStaged(t *testing.T, op string, err error) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), "no staged") {
		t.Fatalf("%s: err = %v, want no staged deploy", op, err)
	}
}

func wantRoot(t *testing.T, tgt target.Target, step, root string) {
	t.Helper()
	digestIsProgram(t, tgt, step)
	if got := rootOf(tgt.Program()); got != root {
		t.Fatalf("after %s: root = %q, want %q", step, got, root)
	}
}

// deployFaultCase: Deploy under d, then the transaction ended each way. A
// refused deploy stages nothing; a silent one stages the running program,
// so a Commit after it succeeds and the device runs what it ran.
func deployFaultCase(d faultinject.Decision) faultCase {
	return func(t *testing.T, tgt target.Target, script *faultinject.Script) {
		orig, alt := confProgram(t).Root, altProgram(t).Root
		staged := alt
		if d.Fail || d.Silent {
			staged = orig
		}
		for _, end := range []string{"rollback", "commit"} {
			digestIsProgram(t, tgt, "before deploy")
			script.Queue(faultinject.PointDeploy, d)
			if err := tgt.Deploy(altProgram(t)); (err != nil) != d.Fail {
				t.Fatalf("deploy: err = %v", err)
			}
			wantRoot(t, tgt, "deploy", staged)
			if d.Fail {
				wantNoStaged(t, "commit after a refused deploy", tgt.Commit())
				return
			}
			if end == "rollback" {
				if err := tgt.Rollback(); err != nil {
					t.Fatalf("rollback: %v", err)
				}
				wantRoot(t, tgt, "rollback", orig)
				continue
			}
			if err := tgt.Commit(); err != nil {
				t.Fatalf("commit: %v", err)
			}
			wantRoot(t, tgt, "commit", staged)
		}
	}
}

// rollbackFaultCase: Rollback of a staged deploy under d. A refused
// rollback leaves the deploy staged, so the next one restores the
// original; a silent one commits the staged program.
func rollbackFaultCase(d faultinject.Decision) faultCase {
	return func(t *testing.T, tgt target.Target, script *faultinject.Script) {
		orig, alt := confProgram(t).Root, altProgram(t).Root
		if err := tgt.Deploy(altProgram(t)); err != nil {
			t.Fatalf("deploy: %v", err)
		}
		script.Queue(faultinject.PointDeploy, d)
		if err := tgt.Rollback(); (err != nil) != d.Fail {
			t.Fatalf("rollback: err = %v", err)
		}
		if d.Fail || d.Silent {
			wantRoot(t, tgt, "rollback", alt)
		} else {
			wantRoot(t, tgt, "rollback", orig)
		}
		err := tgt.Rollback()
		if !d.Fail {
			wantNoStaged(t, "second rollback", err)
			return
		}
		if err != nil {
			t.Fatalf("rollback after a refused one: %v", err)
		}
		wantRoot(t, tgt, "second rollback", orig)
	}
}

// profileFaultCase: Profile(true) under d between two measured batches,
// then an un-faulted Profile(true). Every packet passes the root table t1,
// so its count is the window's packets.
func profileFaultCase(d faultinject.Decision) faultCase {
	return func(t *testing.T, tgt target.Target, script *faultinject.Script) {
		first, second := confBatch(300), confBatch(200)
		if _, err := tgt.Measure(first); err != nil {
			t.Fatal(err)
		}
		script.Queue(faultinject.PointCounters, d)
		prof, err := tgt.Profile(true)
		if (err != nil) != d.Fail {
			t.Fatalf("faulted profile: err = %v", err)
		}
		if d.Zero && prof.TableTotal("t1") != 0 {
			t.Fatalf("zeroed profile holds %d t1 hits", prof.TableTotal("t1"))
		}
		if _, err := tgt.Measure(second); err != nil {
			t.Fatal(err)
		}
		if prof, err = tgt.Profile(true); err != nil {
			t.Fatal(err)
		}
		want := uint64(len(second))
		if d.Fail {
			want += uint64(len(first)) // the refused read left the window open
		}
		if got := prof.TableTotal("t1"); got != want {
			t.Fatalf("next window holds %d t1 hits, want %d", got, want)
		}
	}
}

// TestConformanceRemoteProgramIsTheDevices pins what the loopback remote
// adds to the contract: it keeps one program on its side of the wire and
// asks the device only whether that one is still current, and Program()
// must all the same be the device's program whoever changed it last —
// another connection's entry insert, a rollback, another remote's deploy —
// and never the memory of a caller that went on writing to what it deployed.
func TestConformanceRemoteProgramIsTheDevices(t *testing.T) {
	orig := confProgram(t)
	dev := newLocalTarget(t, orig)
	srv, err := controlplane.NewServer("127.0.0.1:0", nil, nil, controlplane.WithDevice(dev))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dial := func() *remote.Remote {
		r, err := remote.Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		return r
	}
	rem, other := dial(), dial()
	entries, err := controlplane.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer entries.Close()

	same := func(when string) {
		t.Helper()
		got := rem.Program()
		if got == nil {
			t.Fatalf("%s: Program() = nil", when)
		}
		if got.Digest() != dev.Program().Digest() {
			t.Fatalf("%s: Program() is not the program the device runs", when)
		}
	}
	same("at first")
	same("held, unchanged")

	inserted := p4ir.Entry{Match: []p4ir.MatchValue{{Value: 4242}}, Action: "drop_packet"}
	if err := entries.InsertEntry("acl1", inserted); err != nil {
		t.Fatal(err)
	}
	same("after an entry insert through a second client")
	if !slices.ContainsFunc(rem.Program().Tables["acl1"].Entries, func(e p4ir.Entry) bool { return slices.Equal(e.Match, inserted.Match) }) {
		t.Fatal("the second client's entry is missing from Program()")
	}

	alt := altProgram(t)
	if err := rem.Deploy(alt); err != nil {
		t.Fatal(err)
	}
	same("after own deploy")
	// The caller keeps writing to what it deployed, as core.Runtime does
	// on the entry fast path; the device never saw these writes.
	alt.Name = "scribbled"
	alt.Tables["acl2"].Entries = nil
	same("after the caller mutated the program it deployed")
	if got := rem.Program(); got == alt || got.Name == "scribbled" {
		t.Fatal("Program() aliases the caller's program")
	}

	if err := rem.Rollback(); err != nil {
		t.Fatal(err)
	}
	same("after rollback")
	if got := rem.Program().Root; got != orig.Root {
		t.Fatalf("after rollback, root = %q, want %q", got, orig.Root)
	}

	theirs := altProgram(t)
	theirs.Name = "theirs"
	if err := other.Deploy(theirs); err != nil {
		t.Fatal(err)
	}
	if err := other.Commit(); err != nil {
		t.Fatal(err)
	}
	same("after a deploy by a second remote")
	if got := rem.Program().Name; got != "theirs" {
		t.Fatalf("after a second remote's deploy, program = %q", got)
	}
}

// TestConformanceMeasurementsAgree pins backend equivalence directly: the
// same deterministic batch against identically configured devices must
// produce the same measurement locally and across the wire (the emulator
// is deterministic at zero noise), and a replay must reproduce it exactly.
func TestConformanceMeasurementsAgree(t *testing.T) {
	prog := confProgram(t)
	local := newLocalTarget(t, prog)
	rem := newRemoteTarget(t, newLocalTarget(t, prog))
	defer rem.Close()

	batch := confBatch(2000)
	lm, err := local.Measure(batch)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := rem.Measure(batch)
	if err != nil {
		t.Fatal(err)
	}
	if lm != rm {
		t.Errorf("local and remote measurements diverge:\nlocal  %+v\nremote %+v", lm, rm)
	}

	rec := target.NewRecorder(newLocalTarget(t, prog), "agree")
	if _, err := rec.Measure(batch); err != nil {
		t.Fatal(err)
	}
	rp, err := target.NewReplayer(rec.Trace(), prog)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := rp.Measure(nil) // replay ignores the packets
	if err != nil {
		t.Fatal(err)
	}
	if pm != lm {
		t.Errorf("replayed measurement diverges: %+v vs %+v", pm, lm)
	}
}

// runtimeRollbackScenario drives a full core.Runtime round against the
// given target with an inflated gain prediction: the verification window
// must contradict the plan and the rollback must restore the program —
// identically on every backend.
func runtimeRollbackScenario(t *testing.T, tgt target.Target, prog *p4ir.Program, gen *trafficgen.Generator) {
	t.Helper()
	cfg := opt.DefaultConfig()
	cfg.TopKFrac = 1
	cfg.EnableCache = false
	cfg.EnableMerge = false
	rt, err := core.NewRuntime(prog, tgt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	script := faultinject.NewScript()
	script.Queue(faultinject.PointPlan, faultinject.Decision{Scale: 50})
	rt.SetFaultInjector(script)
	guard := core.DefaultDeployGuard(gen.Batch)
	guard.MinRealizedGainFrac = 0.5
	guard.BlacklistRounds = 1
	rt.SetDeployGuard(guard)

	if _, err := tgt.Measure(gen.Batch(3000)); err != nil {
		t.Fatal(err)
	}
	rep, err := rt.OptimizeOnce(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.RolledBack {
		t.Fatalf("mispredicted plan not rolled back: %+v", rep)
	}
	if got := rootOf(tgt.Program()); got != prog.Root {
		t.Errorf("rollback left device on root %q, want %q", got, prog.Root)
	}
	if cur, _ := rt.Current(); cur.Root != prog.Root {
		t.Errorf("rollback left runtime on root %q, want %q", cur.Root, prog.Root)
	}
}

func rollbackGen() *trafficgen.Generator {
	gen := trafficgen.New(1, 0)
	gen.AddFlows(trafficgen.DropTargetedFlows(2, 2000, "tcp.dport", 23, 0.8)...)
	return gen
}

func TestRuntimeRollbackOnVerifyFailureLocal(t *testing.T) {
	prog := confProgram(t)
	runtimeRollbackScenario(t, newLocalTarget(t, prog), prog, rollbackGen())
}

func TestRuntimeRollbackOnVerifyFailureRemote(t *testing.T) {
	prog := confProgram(t)
	tgt := newRemoteTarget(t, newLocalTarget(t, prog))
	defer tgt.Close()
	runtimeRollbackScenario(t, tgt, prog, rollbackGen())
}

func TestRuntimeRollbackOnVerifyFailureReplay(t *testing.T) {
	prog := confProgram(t)
	// Record the scenario against a local device, then replay it: the
	// replayed runtime must reach the identical rollback decision.
	rec := target.NewRecorder(newLocalTarget(t, prog), "rollback")
	runtimeRollbackScenario(t, rec, prog, rollbackGen())
	rp, err := target.NewReplayer(rec.Trace(), prog)
	if err != nil {
		t.Fatal(err)
	}
	runtimeRollbackScenario(t, rp, prog, rollbackGen())
}
