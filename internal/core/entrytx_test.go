package core

import (
	"errors"
	"strings"
	"testing"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/nicsim"
	"pipeleon/internal/opt"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/profile"
	"pipeleon/internal/target"
)

// refusingTarget is a local target whose entry calls and deploys fail
// with refuse while it is set — a full device table, a dropped RPC.
type refusingTarget struct {
	target.Target
	refuse error
}

func (s *refusingTarget) InsertEntry(table string, e p4ir.Entry) error {
	if s.refuse != nil {
		return s.refuse
	}
	return s.Target.InsertEntry(table, e)
}

func (s *refusingTarget) DeleteEntry(table string, match []p4ir.MatchValue) error {
	if s.refuse != nil {
		return s.refuse
	}
	return s.Target.DeleteEntry(table, match)
}

func (s *refusingTarget) ModifyEntry(table string, match []p4ir.MatchValue, action string, args []string) error {
	if s.refuse != nil {
		return s.refuse
	}
	return s.Target.ModifyEntry(table, match, action, args)
}

func (s *refusingTarget) Deploy(prog *p4ir.Program) error {
	if s.refuse != nil {
		return s.refuse
	}
	return s.Target.Deploy(prog)
}

func newRefusingRig(t *testing.T, prog *p4ir.Program, cfg opt.Config) (*Runtime, *nicsim.NIC, *refusingTarget) {
	t.Helper()
	col := profile.NewCollector()
	nic, err := nicsim.New(prog, nicsim.Config{Params: costmodel.BlueField2(), Collector: col, Instrument: true})
	if err != nil {
		t.Fatal(err)
	}
	tgt := &refusingTarget{Target: target.NewLocal(nic, col)}
	rt, err := NewRuntime(prog, tgt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt, nic, tgt
}

// Original returns the original (un-optimized) program.
func (r *Runtime) Original() *p4ir.Program { return r.orig }

// views snapshots the three views of the program an entry operation must
// keep in agreement.
type views struct{ orig, current, device *p4ir.Program }

func snapshot(rt *Runtime, nic *nicsim.NIC) views {
	return views{rt.Original().Clone(), currentOf(rt).Clone(), nic.Program().Clone()}
}

// assertUnchanged fails unless a refused operation left every view as the
// snapshot has it, and the runtime's deployed view equal to the device's.
func assertUnchanged(t *testing.T, op string, was views, rt *Runtime, nic *nicsim.NIC) {
	t.Helper()
	now := snapshot(rt, nic)
	if was.orig.Digest() != now.orig.Digest() {
		t.Errorf("%s: refused, but Original() changed", op)
	}
	if was.current.Digest() != now.current.Digest() {
		t.Errorf("%s: refused, but Current() changed", op)
	}
	if was.device.Digest() != now.device.Digest() {
		t.Errorf("%s: refused, but the device program changed", op)
	}
	if now.current.Digest() != now.device.Digest() {
		t.Errorf("%s: runtime and device disagree on the deployed program", op)
	}
}

// An insert into a table at MaxEntries is refused before the device is
// asked, and no view keeps the entry.
func TestEntryOpRefusedByFullTable(t *testing.T) {
	prog := aclProgram(t)
	prog.Tables["acl1"].MaxEntries = 2
	rt, nic, _ := newRig(t, prog, opt.DefaultConfig())
	fits := p4ir.Entry{Match: []p4ir.MatchValue{{Value: 7001}}, Action: "drop_packet"}
	if err := rt.InsertEntry("acl1", fits); err != nil {
		t.Fatalf("insert below MaxEntries: %v", err)
	}
	was := snapshot(rt, nic)
	err := rt.InsertEntry("acl1", p4ir.Entry{Match: []p4ir.MatchValue{{Value: 7002}}, Action: "drop_packet"})
	if err == nil || !strings.Contains(err.Error(), "full") {
		t.Fatalf("insert into a full table: err = %v, want a table-full refusal", err)
	}
	assertUnchanged(t, "insert into full table", was, rt, nic)
	if got := len(rt.Original().Tables["acl1"].Entries); got != 2 {
		t.Errorf("orig acl1 holds %d entries, want 2", got)
	}
}

// When the device refuses an entry call, the runtime undoes what it had
// applied to its two views and counts no update; the same call succeeds
// once the device accepts again.
func TestEntryOpUndoneWhenDeviceRefuses(t *testing.T) {
	rt, nic, tgt := newRefusingRig(t, aclProgram(t), opt.DefaultConfig())
	installed := []p4ir.MatchValue{{Value: 1111}}
	fresh := p4ir.Entry{Match: []p4ir.MatchValue{{Value: 9999}}, Action: "drop_packet"}
	ops := []struct {
		name string
		run  func() error
	}{
		{"insert", func() error { return rt.InsertEntry("acl1", fresh) }},
		{"modify", func() error { return rt.ModifyEntry("acl1", installed, "allow", nil) }},
		{"delete", func() error { return rt.DeleteEntry("acl1", installed) }},
	}
	boom := errors.New("device says no")
	for _, op := range ops {
		was := snapshot(rt, nic)
		tgt.refuse = boom
		if err := op.run(); !errors.Is(err, boom) {
			t.Fatalf("%s: err = %v, want the device's refusal", op.name, err)
		}
		assertUnchanged(t, op.name, was, rt, nic)
		if n := rt.updCountsOrig["acl1"]; n != 0 {
			t.Errorf("%s: refused, but %d updates counted", op.name, n)
		}
		tgt.refuse = nil
	}
	for i, op := range ops {
		if err := op.run(); err != nil {
			t.Fatalf("%s once the device accepts: %v", op.name, err)
		}
		if currentOf(rt).Digest() != nic.Program().Digest() {
			t.Errorf("%s: runtime and device disagree on the deployed program", op.name)
		}
		if n := rt.updCountsOrig["acl1"]; n != uint64(i+1) {
			t.Errorf("%s: %d updates counted, want %d", op.name, n, i+1)
		}
	}
	if got := rt.Original().Tables["acl1"].Entries; len(got) != 1 || got[0].Match[0].Value != 9999 {
		t.Errorf("orig acl1 = %+v, want only the inserted entry", got)
	}
}

// A refused operation is undone in both views, which leaves the original's
// entries as they were and so its entry version: every gate verdict and
// proof filed under it still holds, and the gate still remembers them.
func TestEntryOpRefusedKeepsVerdicts(t *testing.T) {
	rt, _, tgt := newRefusingRig(t, aclProgram(t), opt.DefaultConfig())
	if !gateRemembers(rt, rt.orig) {
		t.Fatal("gate holds no verdict for the original it deployed")
	}
	tgt.refuse = errors.New("device says no")
	if err := rt.InsertEntry("acl1", p4ir.Entry{Match: []p4ir.MatchValue{{Value: 9999}}, Action: "drop_packet"}); err == nil {
		t.Fatal("refused insert reported success")
	}
	if !gateRemembers(rt, rt.orig) {
		t.Error("a refused insert dropped the gate's verdicts, though the entries are as they were")
	}
}

// The slow path is a transaction too: an insert into a merged table whose
// redeploy the device rejects leaves the cross product, the original and
// the plan as they were.
func TestEntryOpUndoneWhenRedeployFails(t *testing.T) {
	rt, nic, tgt := newRefusingRig(t, mergeProgram(t), mergeConfig())
	mergeRound(t, rt, nic)
	was, plan := snapshot(rt, nic), len(rt.activePlan)
	tgt.refuse = errors.New("reload rejected")
	if err := rt.InsertEntry("A", p4ir.Entry{Match: []p4ir.MatchValue{{Value: 3}}, Action: "set"}); err == nil {
		t.Fatal("insert whose redeploy fails reported success")
	}
	assertUnchanged(t, "insert into merged table", was, rt, nic)
	if len(rt.activePlan) != plan {
		t.Errorf("active plan went from %d to %d options", plan, len(rt.activePlan))
	}
	tgt.refuse = nil
	if err := rt.InsertEntry("A", p4ir.Entry{Match: []p4ir.MatchValue{{Value: 3}}, Action: "set"}); err != nil {
		t.Fatal(err)
	}
	if currentOf(rt).Digest() != nic.Program().Digest() {
		t.Error("runtime and device disagree after the retried insert")
	}
}
