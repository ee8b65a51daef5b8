package controlplane

import (
	"errors"
	"strings"
	"testing"

	"pipeleon/internal/analysis"
	"pipeleon/internal/diag"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
)

// Deploy-side static analysis: the server lints staged programs against
// its own cost model, rejections carry structured diagnostics over the
// wire, and warnings ride along with accepted deploys.

func TestRemoteDeployRejectedWithDiagnostics(t *testing.T) {
	srv, _ := newDeviceServer(t)
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// An entry value that cannot fit its 16-bit key: PL104 at Error.
	bad, err := p4ir.ChainTables("badprog", []p4ir.TableSpec{{
		Name:          "acl",
		Keys:          []p4ir.Key{{Field: "tcp.dport", Kind: p4ir.MatchExact, Width: packet.FieldWidth("tcp.dport")}},
		Actions:       []*p4ir.Action{p4ir.DropAction(), p4ir.NoopAction("allow")},
		DefaultAction: "allow",
		Entries:       []p4ir.Entry{{Match: []p4ir.MatchValue{{Value: 1 << 20}}, Action: "drop_packet"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	err = cl.Deploy(bad)
	if err == nil {
		t.Fatal("deploy of invalid program succeeded")
	}
	var de *DeployError
	if !errors.As(err, &de) {
		t.Fatalf("error is %T, want *DeployError: %v", err, err)
	}
	if !de.Diags.HasErrors() {
		t.Fatalf("DeployError carries no error diagnostics: %v", de.Diags)
	}
	found := false
	for _, d := range de.Diags.Errors() {
		if d.Code == analysis.CodeWidthMismatch && d.Node == "acl" {
			found = true
		}
	}
	if !found {
		t.Errorf("no %s diagnostic for table acl in %v", analysis.CodeWidthMismatch, de.Diags)
	}
	if !strings.Contains(err.Error(), "static analysis") {
		t.Errorf("error message %q does not mention static analysis", err)
	}

	// The device must still run the original program: the bad one was
	// never staged.
	cur, err := cl.Capabilities()
	if err != nil {
		t.Fatal(err)
	}
	_ = cur
}

func TestRemoteDeployAcceptsCleanProgram(t *testing.T) {
	srv, dev := newDeviceServer(t)
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	good, err := p4ir.ChainTables("goodprog", []p4ir.TableSpec{{
		Name:          "acl2",
		Keys:          []p4ir.Key{{Field: "tcp.sport", Kind: p4ir.MatchExact, Width: packet.FieldWidth("tcp.sport")}},
		Actions:       []*p4ir.Action{p4ir.DropAction(), p4ir.NoopAction("allow")},
		DefaultAction: "allow",
		Entries:       []p4ir.Entry{{Match: []p4ir.MatchValue{{Value: 80}}, Action: "drop_packet"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Deploy(good); err != nil {
		t.Fatalf("deploy of clean program failed: %v", err)
	}
	if err := cl.Commit(); err != nil {
		t.Fatal(err)
	}
	cur := dev.Program()
	if cur.Name != "goodprog" {
		t.Errorf("device runs %q after committed deploy, want goodprog", cur.Name)
	}
}

// Diagnostics must survive the JSON framing byte-for-byte (severity is
// marshalled as text, not an integer).
func TestDiagnosticsRoundTripJSON(t *testing.T) {
	var l diag.List
	l.Add("PL104", diag.Error, "acl", "tcp.dport", "entry 0 value 0x%x exceeds the %d-bit key width", 1<<20, 16)
	l.Add("PL101", diag.Warn, "t9", "", "unreachable from root")
	resp := &Response{ID: 7, OK: false, Error: "rejected", Diags: l}

	var buf strings.Builder
	if err := writeFrame(&buf, resp, nil); err != nil {
		t.Fatal(err)
	}
	var got Response
	if _, err := readFrame(strings.NewReader(buf.String()), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Diags) != 2 {
		t.Fatalf("round-trip lost diagnostics: %v", got.Diags)
	}
	for i := range l {
		if got.Diags[i] != l[i] {
			t.Errorf("diag %d: got %+v, want %+v", i, got.Diags[i], l[i])
		}
	}
}

// The WithDeepVerify tier: the first deploy sets the semantic baseline,
// later deploys must prove equivalence against it, and rejections carry
// the SE diagnostics over the wire.
func TestRemoteDeployDeepVerify(t *testing.T) {
	srv, _ := newDeviceServer(t, WithDeepVerify())
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	mk := func(name string, markVal string) *p4ir.Program {
		prog, err := p4ir.ChainTables(name, []p4ir.TableSpec{{
			Name:          "acl2",
			Keys:          []p4ir.Key{{Field: "tcp.sport", Kind: p4ir.MatchExact, Width: packet.FieldWidth("tcp.sport")}},
			Actions:       []*p4ir.Action{p4ir.DropAction(), p4ir.NewAction("allow", p4ir.Prim("modify_field", "meta.mark", markVal))},
			DefaultAction: "allow",
			Entries:       []p4ir.Entry{{Match: []p4ir.MatchValue{{Value: 80}}, Action: "drop_packet"}},
		}})
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}

	// First deploy: baseline.
	if err := cl.Deploy(mk("base", "1")); err != nil {
		t.Fatalf("baseline deploy failed: %v", err)
	}
	// Equivalent redeploy: accepted.
	if err := cl.Deploy(mk("same", "1")); err != nil {
		t.Fatalf("equivalent redeploy rejected: %v", err)
	}
	// Changed observable write: rejected with SE003 on the wire.
	err = cl.Deploy(mk("evil", "2"))
	if err == nil {
		t.Fatal("semantics-changing deploy accepted")
	}
	var de *DeployError
	if !errors.As(err, &de) {
		t.Fatalf("error is %T, want *DeployError: %v", err, err)
	}
	found := false
	for _, d := range de.Diags.Errors() {
		if d.Code == analysis.CodeSemEgress {
			found = true
		}
	}
	if !found {
		t.Errorf("no %s diagnostic in %v", analysis.CodeSemEgress, de.Diags)
	}
	if !strings.Contains(err.Error(), "semantic verification") {
		t.Errorf("error message %q does not mention semantic verification", err)
	}
}

// Deep lints (PL2xx) ride along as warnings on an accepted deep deploy.
func TestRemoteDeployDeepLintWarnings(t *testing.T) {
	srv, _ := newDeviceServer(t, WithDeepVerify())
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	prog, err := p4ir.ChainTables("warny", []p4ir.TableSpec{{
		Name:          "t",
		Keys:          []p4ir.Key{{Field: "ipv4.tos", Kind: p4ir.MatchTernary, Width: packet.FieldWidth("ipv4.tos")}},
		Actions:       []*p4ir.Action{p4ir.NoopAction("a")},
		DefaultAction: "a",
		Entries: []p4ir.Entry{
			{Priority: 1, Match: []p4ir.MatchValue{{Value: 0x10, Mask: 0xff}}, Action: "a"},
			{Priority: 9, Match: []p4ir.MatchValue{{Value: 0, Mask: 0}}, Action: "a"},
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cl.DeployDiags(prog)
	if err != nil {
		t.Fatalf("deploy failed: %v", err)
	}
	found := false
	for _, d := range resp {
		if d.Code == analysis.CodeShadowedEntry {
			found = true
		}
	}
	if !found {
		t.Errorf("accepted deploy carries no %s warning: %v", analysis.CodeShadowedEntry, resp)
	}
}

// A deep server's baseline is the first program the device accepted plus
// every entry operation the server has served since — so "the very program
// the device is running" always redeploys, whatever was inserted, and a
// program from before an insert (or after a delete: one still holding the
// entry) does not.
func TestDeepGateBaselineFollowsEntryOps(t *testing.T) {
	srv, dev := newDeviceServer(t, WithDeepVerify())
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	dst := func(v uint64) []p4ir.MatchValue { return []p4ir.MatchValue{{Value: v}} }
	e1 := p4ir.Entry{Match: dst(0x0b000001), Action: "set", Args: []string{"1"}}
	e2 := p4ir.Entry{Match: dst(0x0b000002), Action: "set", Args: []string{"9"}} // widens meta.mark's egress range
	mk := func(name string, entries ...p4ir.Entry) *p4ir.Program {
		prog, err := p4ir.ChainTables(name, []p4ir.TableSpec{{
			Name:          "mark",
			Keys:          []p4ir.Key{{Field: "ipv4.dstAddr", Kind: p4ir.MatchExact, Width: packet.FieldWidth("ipv4.dstAddr")}},
			Actions:       []*p4ir.Action{p4ir.NewAction("set", p4ir.Prim("modify_field", "meta.mark", "$0")), p4ir.NoopAction("pass")},
			DefaultAction: "pass",
			Entries:       entries,
		}})
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	refusedSE003 := func(what string, err error) {
		t.Helper()
		var de *DeployError
		if !errors.As(err, &de) || !strings.Contains(err.Error(), analysis.CodeSemEgress) {
			t.Fatalf("%s: err = %v, want an %s refusal", what, err, analysis.CodeSemEgress)
		}
	}

	if err := cl.Deploy(mk("base", e1)); err != nil {
		t.Fatalf("baseline deploy: %v", err)
	}
	if err := cl.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := cl.InsertEntry("mark", e2); err != nil {
		t.Fatal(err)
	}
	running := dev.Program().Clone()
	if n := len(running.Tables["mark"].Entries); n != 2 {
		t.Fatalf("device holds %d entries after the insert, want 2", n)
	}
	if err := cl.Deploy(running); err != nil {
		t.Fatalf("redeploy of the program the device is running: %v", err)
	}
	refusedSE003("program from before the insert", cl.Deploy(mk("stale", e1)))

	// A modify moves the baseline too: e2 now writes what e1 writes.
	if err := cl.ModifyEntry("mark", e2.Match, "set", []string{"1"}); err != nil {
		t.Fatal(err)
	}
	refusedSE003("program from before the modify", cl.Deploy(running))

	if err := cl.DeleteEntry("mark", e2.Match); err != nil {
		t.Fatal(err)
	}
	if err := cl.Deploy(mk("shrunk", e1)); err != nil {
		t.Fatalf("redeploy without the deleted entry: %v", err)
	}
	refusedSE003("program still holding the deleted entry", cl.Deploy(mk("grown", e1, e2)))

	// An operation the device refused changed nothing.
	if err := cl.DeleteEntry("mark", e2.Match); err == nil {
		t.Fatal("second delete of the same entry succeeded")
	}
	if err := cl.Deploy(mk("shrunk-again", e1)); err != nil {
		t.Fatalf("redeploy after a refused entry operation: %v", err)
	}
}
