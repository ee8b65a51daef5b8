package core

import (
	"strings"
	"testing"
	"time"

	"pipeleon/internal/opt"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/trafficgen"
)

// markProgram is a table whose written value is action data, then two
// independent ACLs: meta.mark egresses in [0,1] until an entry carries
// something larger.
func markProgram(t *testing.T) *p4ir.Program {
	t.Helper()
	dst := p4ir.Key{Field: "ipv4.dstAddr", Kind: p4ir.MatchExact, Width: packet.FieldWidth("ipv4.dstAddr")}
	acl := func(name, field string, dropVal uint64) p4ir.TableSpec {
		return p4ir.TableSpec{
			Name:          name,
			Keys:          []p4ir.Key{{Field: field, Kind: p4ir.MatchExact, Width: packet.FieldWidth(field)}},
			Actions:       []*p4ir.Action{p4ir.DropAction(), p4ir.NoopAction("allow")},
			DefaultAction: "allow",
			Entries:       []p4ir.Entry{{Match: []p4ir.MatchValue{{Value: dropVal}}, Action: "drop_packet"}},
		}
	}
	prog, err := p4ir.ChainTables("markprog", []p4ir.TableSpec{
		{
			Name:          "mark",
			Keys:          []p4ir.Key{dst},
			Actions:       []*p4ir.Action{p4ir.NewAction("set", p4ir.Prim("modify_field", "meta.mark", "$0")), p4ir.NoopAction("pass")},
			DefaultAction: "pass",
			Entries:       []p4ir.Entry{{Match: []p4ir.MatchValue{{Value: 0x0b000001}}, Action: "set", Args: []string{"1"}}},
		},
		acl("acl1", "tcp.sport", 1111),
		acl("acl2", "tcp.dport", 23),
	})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// Entry operations mutate the original program in place, and the semantic
// proofs of a DeepVerify runtime were computed from the entries as they
// were. An insert that widens an egress range must therefore invalidate
// them: a stale checker would compare every later candidate against the
// old range (spurious SE003: the search finds nothing deployable) and
// would still accept a program built from the old entries (a stale true
// verdict).
func TestEntryUpdateInvalidatesSemanticProofs(t *testing.T) {
	prog := markProgram(t)
	cfg := opt.DefaultConfig()
	cfg.TopKFrac = 1
	cfg.EnableCache = false
	cfg.EnableMerge = false
	cfg.DeepVerify = true
	rt, nic, _ := newRig(t, prog, cfg)

	genA := trafficgen.New(1, 0)
	genA.AddFlows(trafficgen.DropTargetedFlows(2, 2000, "tcp.dport", 23, 0.8)...)
	drive(nic, genA, 4000)
	if rep, err := rt.OptimizeOnce(time.Second); err != nil || !rep.Deployed || currentOf(rt).Root != "acl2" {
		t.Fatalf("phase 1 should deploy acl2 first: root %q, report %+v, err %v", currentOf(rt).Root, rep, err)
	}
	// Search, the joint check of the applied plan and the deploy gate ask
	// one checker: the gate's proof of the program the search just proved
	// is a memo hit, and a round that re-selects the plan proves nothing.
	first := rt.Status()
	if first.ProofMemoMisses == 0 || first.ProofMemoHits == 0 {
		t.Errorf("deploy gate did not reuse the search's proof: %+v", first)
	}
	drive(nic, genA, 4000)
	if _, err := rt.OptimizeOnce(time.Second); err != nil {
		t.Fatal(err)
	}
	if again := rt.Status(); again.ProofMemoMisses != first.ProofMemoMisses {
		t.Errorf("unchanged plan was proven again: misses %d -> %d", first.ProofMemoMisses, again.ProofMemoMisses)
	}
	beforeInsert := currentOf(rt).Clone()

	widen := p4ir.Entry{Match: []p4ir.MatchValue{{Value: 0x0b000002}}, Action: "set", Args: []string{"9"}}
	if err := rt.InsertEntry("mark", widen); err != nil {
		t.Fatal(err)
	}

	// The drop concentration flips, so the next round must search a new
	// plan and prove it against the updated original.
	genB := trafficgen.New(3, 0)
	genB.AddFlows(trafficgen.DropTargetedFlows(4, 2000, "tcp.sport", 1111, 0.8)...)
	drive(nic, genB, 4000)
	rep, err := rt.OptimizeOnce(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Deployed || currentOf(rt).Root != "acl1" {
		t.Errorf("phase 2 should deploy acl1 first: root %q, report %+v", currentOf(rt).Root, rep)
	}
	if s := rep.Error + rep.DeployError + strings.Join(rep.Diagnostics, " "); strings.Contains(s, "SE0") {
		t.Errorf("round after the insert carries semantic-equivalence diagnostics: %s", s)
	}
	if st := rt.Status(); st.ProofMemoMisses == first.ProofMemoMisses {
		t.Errorf("no semantic proof ran after the insert: %+v", st)
	}

	// The rebuilt checker still blocks what it must: a program holding
	// the entries from before the insert, and a hand-broken candidate.
	var stale RoundReport
	if gate(rt, beforeInsert, &stale) || !strings.Contains(stale.DeployError, "SE003") {
		t.Errorf("program without the inserted entry passed the gate: %q", stale.DeployError)
	}
	broken := rt.Original().Clone()
	broken.Tables["acl1"].Actions[1] = p4ir.NewAction("allow", p4ir.Prim("modify_field", "meta.mark", "2"))
	var blocked RoundReport
	if gate(rt, broken, &blocked) || !strings.Contains(blocked.DeployError, "SE003") {
		t.Errorf("hand-broken candidate passed the gate: %q", blocked.DeployError)
	}
}
