package core

import (
	"errors"
	"strings"
	"testing"

	"pipeleon/internal/controlplane"
	"pipeleon/internal/costmodel"
	"pipeleon/internal/nicsim"
	"pipeleon/internal/opt"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/profile"
	"pipeleon/internal/target"
)

// The runtime's static-analysis gate: erroring programs never reach the
// device, diagnostics land in the round report, and NewRuntime refuses an
// original program that fails the lint outright.

func TestNewRuntimeRejectsInvalidProgram(t *testing.T) {
	prog, err := p4ir.ChainTables("badwidth", []p4ir.TableSpec{{
		Name:          "t",
		Keys:          []p4ir.Key{{Field: "ipv4.tos", Kind: p4ir.MatchExact, Width: packet.FieldWidth("ipv4.tos")}},
		Actions:       []*p4ir.Action{p4ir.NoopAction("pass")},
		DefaultAction: "pass",
		Entries:       []p4ir.Entry{{Match: []p4ir.MatchValue{{Value: 0xff}}, Action: "pass"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	col := profile.NewCollector()
	nic, err := nicsim.New(prog, nicsim.Config{Params: costmodel.BlueField2(), Collector: col})
	if err != nil {
		t.Fatal(err)
	}
	// 0x1ff cannot fit the 8-bit tos key: P4S06 (once the lint's PL104).
	// The emulator refuses it by the same rule as the runtime.
	bad := prog.Clone()
	bad.Tables["t"].Entries = []p4ir.Entry{{Match: []p4ir.MatchValue{{Value: 0x1ff}}, Action: "pass"}}
	if _, err := nicsim.New(bad, nicsim.Config{Params: costmodel.BlueField2()}); !errors.Is(err, p4ir.ErrBadEntry) {
		t.Errorf("the emulator took the program: %v", err)
	}
	_, err = NewRuntime(bad, target.NewLocal(nic, col), opt.DefaultConfig())
	if err == nil {
		t.Fatal("NewRuntime accepted a program with a P4S06 entry")
	}
	if !strings.Contains(err.Error(), "P4S06") {
		t.Errorf("error does not carry the diagnostic code: %v", err)
	}
}

// gate runs the deploy gate on prog the way a round does: under the
// digest the round computed to compare layouts.
func gate(rt *Runtime, prog *p4ir.Program, report *RoundReport) bool {
	diags, ref := rt.deployGate(prog, prog.Digest())
	report.Diagnostics = diags
	if ref != nil {
		report.DeployError = ref.detail
	}
	return ref == nil
}

// gateRemembers reports whether the gate holds a verdict for prog: asking
// again is then a memo hit.
func gateRemembers(rt *Runtime, prog *p4ir.Program) bool {
	before, _ := rt.gate.MemoStats()
	rt.gate.Check(prog, prog.Digest())
	after, _ := rt.gate.MemoStats()
	return after == before+1
}

func TestVetProgramFlagsBrokenRewrite(t *testing.T) {
	prog := aclProgram(t)
	rt, _, _ := newRig(t, prog, opt.DefaultConfig())

	// The unchanged program vets clean (pointer-identical: no rewrite
	// proof needed).
	if v := rt.gate.Check(rt.orig, rt.orig.Digest()); v.Diags.HasErrors() {
		t.Fatalf("identity deploy has error diagnostics: %v", v.Diags.Errors())
	}

	// A candidate that silently dropped a table must be blocked.
	mut := prog.Clone()
	for name, tab := range mut.Tables {
		if name != mut.Root && !tab.IsSwitchCase() {
			delete(mut.Tables, name)
			break
		}
	}
	if v := rt.gate.Check(mut, mut.Digest()); !v.Diags.HasErrors() || v.Refusal == "" {
		t.Fatal("rewrite that lost a table vetted clean")
	}
}

func TestDeployGateFillsReport(t *testing.T) {
	prog := aclProgram(t)
	rt, _, _ := newRig(t, prog, opt.DefaultConfig())

	mut := prog.Clone()
	for name := range mut.Tables {
		if name != mut.Root {
			delete(mut.Tables, name)
			break
		}
	}
	var report RoundReport
	if gate(rt, mut, &report) {
		t.Fatal("deploy gate passed a broken candidate")
	}
	if !strings.Contains(report.DeployError, "blocked by static analysis") {
		t.Errorf("DeployError = %q, want static-analysis block", report.DeployError)
	}
	if len(report.Diagnostics) == 0 {
		t.Error("round report carries no diagnostics")
	}

	// And a clean candidate sails through without residue.
	var clean RoundReport
	if !gate(rt, prog, &clean) {
		t.Fatalf("deploy gate blocked the unchanged program: %v", clean.DeployError)
	}
	if clean.DeployError != "" {
		t.Errorf("clean deploy left DeployError = %q", clean.DeployError)
	}
}

// The DeepVerify tier of the deploy gate: a candidate that keeps the
// original's dependency structure (so the always-on rewrite proof passes)
// but changes an observable write must be blocked — and only when the
// deep gate is configured.
func TestDeepDeployGateBlocksSemanticChange(t *testing.T) {
	prog := aclProgram(t)

	// Same shape and dependency structure, but the miss path now writes a
	// different value: structurally a valid rewrite, semantically not.
	mut := prog.Clone()
	mut.Tables["t1"].Actions[1] = p4ir.NewAction("pass", p4ir.Prim("modify_field", "meta.t1", "2"))

	// Without the deep gate the mutation sails through.
	shallow, _, _ := newRig(t, prog, opt.DefaultConfig())
	var rep RoundReport
	if !gate(shallow, mut, &rep) {
		t.Fatalf("shallow gate blocked the mutation: %v", rep.DeployError)
	}

	cfg := opt.DefaultConfig()
	cfg.DeepVerify = true
	deep, _, _ := newRig(t, prog, cfg)

	var blocked RoundReport
	if gate(deep, mut, &blocked) {
		t.Fatal("deep gate passed a semantics-changing candidate")
	}
	if !strings.Contains(blocked.DeployError, "SE003") {
		t.Errorf("DeployError = %q, want an SE003 block", blocked.DeployError)
	}

	// The unchanged program and a legal independent reorder still deploy.
	var clean RoundReport
	if !gate(deep, prog, &clean) {
		t.Fatalf("deep gate blocked the unchanged program: %v", clean.DeployError)
	}
	reordered, err := p4ir.ChainTables("aclprog", []p4ir.TableSpec{
		{
			Name:          "t2",
			Keys:          []p4ir.Key{{Field: "ipv4.srcAddr", Kind: p4ir.MatchExact, Width: packet.FieldWidth("ipv4.srcAddr")}},
			Actions:       []*p4ir.Action{p4ir.NewAction("set", p4ir.Prim("modify_field", "meta.t2", "1")), p4ir.NoopAction("pass")},
			DefaultAction: "pass",
		},
		{
			Name:          "t1",
			Keys:          []p4ir.Key{{Field: "ipv4.dstAddr", Kind: p4ir.MatchExact, Width: packet.FieldWidth("ipv4.dstAddr")}},
			Actions:       []*p4ir.Action{p4ir.NewAction("set", p4ir.Prim("modify_field", "meta.t1", "1")), p4ir.NoopAction("pass")},
			DefaultAction: "pass",
		},
		{
			Name:          "acl1",
			Keys:          []p4ir.Key{{Field: "tcp.sport", Kind: p4ir.MatchExact, Width: packet.FieldWidth("tcp.sport")}},
			Actions:       []*p4ir.Action{p4ir.DropAction(), p4ir.NoopAction("allow")},
			DefaultAction: "allow",
			Entries:       []p4ir.Entry{{Match: []p4ir.MatchValue{{Value: 1111}}, Action: "drop_packet"}},
		},
		{
			Name:          "acl2",
			Keys:          []p4ir.Key{{Field: "tcp.dport", Kind: p4ir.MatchExact, Width: packet.FieldWidth("tcp.dport")}},
			Actions:       []*p4ir.Action{p4ir.DropAction(), p4ir.NoopAction("allow")},
			DefaultAction: "allow",
			Entries:       []p4ir.Entry{{Match: []p4ir.MatchValue{{Value: 23}}, Action: "drop_packet"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var ok RoundReport
	if !gate(deep, reordered, &ok) {
		t.Fatalf("deep gate blocked an equivalent reorder: %v", ok.DeployError)
	}
}

// The runtime's deploy gate and a deep server's OpDeploy are one
// analysis.Gate: the same original and the same hand-broken candidates get
// the same diagnostic codes and the same accept/refuse either way.
func TestWireGateIsTheLocalGate(t *testing.T) {
	// w writes meta.a, r reads it, acl is independent of both.
	orig, err := p4ir.ChainTables("wire", []p4ir.TableSpec{
		{
			Name:          "w",
			Keys:          []p4ir.Key{{Field: "ipv4.dstAddr", Kind: p4ir.MatchExact, Width: packet.FieldWidth("ipv4.dstAddr")}},
			Actions:       []*p4ir.Action{p4ir.NewAction("set", p4ir.Prim("modify_field", "meta.a", "3")), p4ir.NoopAction("pass")},
			DefaultAction: "pass",
			Entries:       []p4ir.Entry{{Match: []p4ir.MatchValue{{Value: 0x0b000001}}, Action: "set"}},
		},
		{
			Name:          "r",
			Keys:          []p4ir.Key{{Field: "ipv4.srcAddr", Kind: p4ir.MatchExact, Width: packet.FieldWidth("ipv4.srcAddr")}},
			Actions:       []*p4ir.Action{p4ir.NewAction("copy", p4ir.Prim("modify_field", "meta.b", "meta.a"))},
			DefaultAction: "copy",
		},
		{
			Name:          "acl",
			Keys:          []p4ir.Key{{Field: "tcp.sport", Kind: p4ir.MatchExact, Width: packet.FieldWidth("tcp.sport")}},
			Actions:       []*p4ir.Action{p4ir.DropAction(), p4ir.NoopAction("allow")},
			DefaultAction: "allow",
			Entries:       []p4ir.Entry{{Match: []p4ir.MatchValue{{Value: 1111}}, Action: "drop_packet"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := opt.DefaultConfig()
	cfg.DeepVerify = true
	rt, _, _ := newRig(t, orig, cfg)

	col := profile.NewCollector()
	nic, err := nicsim.New(orig.Clone(), nicsim.Config{Params: costmodel.BlueField2(), Collector: col})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := controlplane.NewServer("127.0.0.1:0", nil, nil,
		controlplane.WithDevice(target.NewLocal(nic, col)), controlplane.WithDeepVerify())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := controlplane.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.DeployEncoded(orig.AppendBinary(nil)); err != nil { // the server's baseline
		t.Fatal(err)
	}

	edit := func(name string, f func(p *p4ir.Program)) *p4ir.Program {
		p := orig.Clone()
		p.Name = name
		f(p)
		return p
	}
	candidates := []*p4ir.Program{
		edit("same", func(*p4ir.Program) {}),
		edit("acl-first", func(p *p4ir.Program) { // a legal reorder
			p.Root, p.Tables["acl"].BaseNext, p.Tables["r"].BaseNext = "acl", "w", ""
		}),
		edit("lost-table", func(p *p4ir.Program) {
			p.Tables["r"].BaseNext = ""
			delete(p.Tables, "acl")
		}),
		edit("reversed-dependency", func(p *p4ir.Program) {
			p.Root, p.Tables["r"].BaseNext, p.Tables["w"].BaseNext = "r", "w", "acl"
		}),
		edit("changed-write", func(p *p4ir.Program) {
			p.Tables["w"].Actions[0] = p4ir.NewAction("set", p4ir.Prim("modify_field", "meta.a", "4"))
		}),
		edit("p4s06-entry", func(p *p4ir.Program) { // the entry again, 17 bits in the 16-bit tcp.sport key (once PL104)
			e := p.Tables["acl"].Entries[0].Clone()
			e.Match[0].Value = 0x1ffff
			p.Tables["acl"].Entries = []p4ir.Entry{e} // past the rule, which would refuse it
		}),
	}
	codes := func(rendered []string) string {
		var out []string
		for _, d := range rendered {
			out = append(out, strings.Fields(d)[0])
		}
		return strings.Join(out, " ")
	}
	refusals := 0
	for _, cand := range candidates {
		var rep RoundReport
		localOK := gate(rt, cand, &rep)
		wire, err := cl.DeployEncoded(cand.AppendBinary(nil))
		var de *controlplane.DeployError
		if errors.As(err, &de) {
			wire = de.Diags
		} else if err != nil {
			t.Fatalf("%s: %v", cand.Name, err)
		}
		if wireOK := err == nil; wireOK != localOK {
			t.Errorf("%s: local gate accepted=%v, wire gate accepted=%v (%v)", cand.Name, localOK, wireOK, err)
		}
		if l, w := codes(rep.Diagnostics), codes(wire.Strings()); l != w {
			t.Errorf("%s: local gate reports [%s], wire gate [%s]", cand.Name, l, w)
		}
		if !localOK {
			refusals++
			tier := strings.TrimPrefix(rep.DeployError, "blocked by ")
			if !strings.HasSuffix(err.Error(), tier) {
				t.Errorf("%s: local refusal %q, wire refusal %q", cand.Name, rep.DeployError, err)
			}
		}
	}
	if refusals != len(candidates)-2 {
		t.Errorf("%d of %d candidates refused; every edit but the first two is a broken rewrite", refusals, len(candidates))
	}
}
