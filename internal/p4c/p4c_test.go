package p4c

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/nicsim"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
)

const demoSrc = `
// A small SmartNIC pipeline.
action permit() { no_op(); }
action deny()   { drop(); }
action fwd(port) {
    modify_field(meta.egress_port, port);
}
action decorate() {
    modify_field(ipv4.tos, 7);
    modify_field(meta.touched, 1);
}

table acl {
    key = { ipv4.srcAddr: ternary; tcp.dport: exact; }
    actions = { deny; permit; }
    default_action = permit;
    size = 1024;
}

table classify {
    key = { tcp.dport: exact; }
    actions = { fwd; permit; }
    default_action = permit;
}

table webpath { key = { ipv4.dstAddr: exact; } actions = { decorate; permit; } }
table route {
    key = { ipv4.dstAddr: lpm; }
    actions = { fwd; permit; }
}

control ingress {
    apply(acl);
    if (ipv4.ttl > 1) {
        switch (apply(classify)) {
            fwd: { apply(webpath); }
        }
    }
    apply(route);
}
`

func TestCompileDemo(t *testing.T) {
	prog, err := Compile(demoSrc)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Name != "ingress" {
		t.Errorf("name = %q", prog.Name)
	}
	if prog.Root != "acl" {
		t.Errorf("root = %q, want acl", prog.Root)
	}
	// acl -> cond_1; cond true -> classify; classify fwd -> webpath ->
	// route; classify other -> route; cond false -> route.
	acl := prog.Tables["acl"]
	if acl.BaseNext != "cond_1" {
		t.Errorf("acl.next = %q", acl.BaseNext)
	}
	cond := prog.Conds["cond_1"]
	if cond == nil || cond.TrueNext != "classify" || cond.FalseNext != "route" {
		t.Fatalf("cond = %+v", cond)
	}
	if cond.Expr != "ipv4.ttl > 1" || len(cond.ReadFields) != 1 || cond.ReadFields[0] != "ipv4.ttl" {
		t.Errorf("cond expr/fields: %+v", cond)
	}
	classify := prog.Tables["classify"]
	if !classify.IsSwitchCase() {
		t.Fatal("classify should be switch-case")
	}
	if classify.ActionNext["fwd"] != "webpath" {
		t.Errorf("classify fwd -> %q", classify.ActionNext["fwd"])
	}
	if classify.BaseNext != "route" {
		t.Errorf("classify default -> %q", classify.BaseNext)
	}
	if prog.Tables["webpath"].BaseNext != "route" {
		t.Errorf("webpath -> %q", prog.Tables["webpath"].BaseNext)
	}
	if prog.Tables["route"].BaseNext != "" {
		t.Errorf("route should sink, -> %q", prog.Tables["route"].BaseNext)
	}
	// Key kinds and widths resolved.
	if acl.Keys[0].Kind != p4ir.MatchTernary || acl.Keys[0].Width != 32 {
		t.Errorf("acl key0 = %+v", acl.Keys[0])
	}
	if acl.Keys[1].Kind != p4ir.MatchExact || acl.Keys[1].Width != 16 {
		t.Errorf("acl key1 = %+v", acl.Keys[1])
	}
	if acl.MaxEntries != 1024 {
		t.Errorf("acl size = %d", acl.MaxEntries)
	}
	// Action parameter rewriting: fwd(port) -> $0.
	fwd := classify.Action("fwd")
	if fwd == nil || fwd.Primitives[0].Args[1] != "$0" {
		t.Errorf("fwd primitives: %+v", fwd)
	}
	// deny lowers to a drop primitive.
	if !prog.Tables["acl"].Action("deny").Drops() {
		t.Error("deny should drop")
	}
}

// The compiled program must actually run on the emulator.
func TestCompiledProgramExecutes(t *testing.T) {
	prog, err := Compile(demoSrc)
	if err != nil {
		t.Fatal(err)
	}
	// Route 10.0.0.0/8 to port 9; classify port 80 to fwd(3).
	nic, err := nicsim.New(prog, nicsim.Config{Params: costmodel.BlueField2()})
	if err != nil {
		t.Fatal(err)
	}
	if err := nic.InsertEntry("route", p4ir.Entry{
		Match:  []p4ir.MatchValue{{Value: 0x0a000000, PrefixLen: 8}},
		Action: "fwd", Args: []string{"9"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := nic.InsertEntry("classify", p4ir.Entry{
		Match:  []p4ir.MatchValue{{Value: 80}},
		Action: "fwd", Args: []string{"3"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := nic.InsertEntry("webpath", p4ir.Entry{
		Match:  []p4ir.MatchValue{{Value: 0x0a000001}},
		Action: "decorate",
	}); err != nil {
		t.Fatal(err)
	}
	pkt := &packet.Packet{
		Eth:     packet.Ethernet{Type: packet.EtherTypeIPv4},
		IP:      packet.IPv4{TTL: 64, Protocol: packet.ProtoTCP, SrcAddr: 1, DstAddr: 0x0a000001},
		TCP:     packet.TCP{SrcPort: 1234, DstPort: 80},
		HasIPv4: true, HasTCP: true,
	}
	r := nic.Process(pkt)
	if r.Dropped {
		t.Fatal("packet should not drop")
	}
	wantPath := []string{"acl", "cond_1", "classify", "webpath", "route"}
	if len(r.Path) != len(wantPath) {
		t.Fatalf("path = %v, want %v", r.Path, wantPath)
	}
	for i := range wantPath {
		if r.Path[i] != wantPath[i] {
			t.Fatalf("path = %v, want %v", r.Path, wantPath)
		}
	}
	if v := pkt.GetID(packet.FieldIDFor("meta.egress_port")); v != 9 {
		t.Errorf("egress_port = %d, want 9 (route entry wins last)", v)
	}
	if v := pkt.GetID(packet.FieldIDFor("ipv4.tos")); v != 7 {
		t.Errorf("tos = %d, want 7 (decorate on web path)", v)
	}
	// TTL 1 skips classification.
	// A copy without the metadata the first walk wrote.
	pkt2 := &packet.Packet{Eth: pkt.Eth, IP: pkt.IP, TCP: pkt.TCP, UDP: pkt.UDP, HasIPv4: pkt.HasIPv4, HasTCP: pkt.HasTCP, HasUDP: pkt.HasUDP, Payload: pkt.Payload, WireLen: pkt.WireLen}
	pkt2.IP.TTL = 1
	r2 := nic.Process(pkt2)
	if len(r2.Path) != 3 || r2.Path[2] != "route" {
		t.Errorf("ttl=1 path = %v", r2.Path)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"no control", `action a() { no_op(); }`, "no control block"},
		{"unknown decl", `parser x { }`, "unknown declaration"},
		{"bad match kind", `
			action a() { no_op(); }
			table t { key = { f.x: bogus; } actions = { a; } }
			control c { apply(t); }`, "match kind"},
		{"undefined action", `
			table t { key = { f.x: exact; } actions = { ghost; } }
			control c { apply(t); }`, "undefined action"},
		{"undefined table", `
			action a() { no_op(); }
			control c { apply(ghost); }`, "undefined table"},
		{"double apply", `
			action a() { no_op(); }
			table t { actions = { a; } }
			control c { apply(t); apply(t); }`, "applied more than once"},
		{"bad default", `
			action a() { no_op(); }
			action b() { no_op(); }
			table t { actions = { a; } default_action = b; }
			control c { apply(t); }`, "not in actions"},
		{"switch case not action", `
			action a() { no_op(); }
			table t { actions = { a; } }
			control c { switch (apply(t)) { ghost: { } } }`, "not an action"},
		{"duplicate default case", `
			action a() { no_op(); }
			table t { actions = { a; } }
			control c { switch (apply(t)) { default: { } default: { } } }`, "duplicate default"},
		{"unterminated comment", `/* hi`, "unterminated"},
		{"garbage token", `action a() { no_op(); } control c { @ }`, "unexpected character"},
		{"table without actions", `
			table t { key = { f.x: exact; } }
			control c { apply(t); }`, "no actions"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Compile(c.src)
			if err == nil {
				t.Fatalf("compile accepted invalid source")
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error %q does not mention %q", err, c.wantSub)
			}
		})
	}
}

func TestIfElseLowering(t *testing.T) {
	src := `
		action a() { no_op(); }
		table t1 { actions = { a; } }
		table t2 { actions = { a; } }
		table t3 { actions = { a; } }
		control c {
			if (meta.x == 1) { apply(t1); } else { apply(t2); }
			apply(t3);
		}`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	cond := prog.Conds["cond_1"]
	if cond.TrueNext != "t1" || cond.FalseNext != "t2" {
		t.Fatalf("cond = %+v", cond)
	}
	if prog.Tables["t1"].BaseNext != "t3" || prog.Tables["t2"].BaseNext != "t3" {
		t.Error("both arms should rejoin at t3")
	}
	if prog.Root != "cond_1" {
		t.Errorf("root = %q", prog.Root)
	}
}

func TestEmptyIfBranchSkipsToJoin(t *testing.T) {
	src := `
		action a() { no_op(); }
		table t1 { actions = { a; } }
		table t2 { actions = { a; } }
		control c {
			if (meta.x == 1) { apply(t1); }
			apply(t2);
		}`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	cond := prog.Conds["cond_1"]
	if cond.FalseNext != "t2" {
		t.Errorf("empty else should skip straight to the join, got %q", cond.FalseNext)
	}
}

func TestUnappliedTablesRemainAddressable(t *testing.T) {
	src := `
		action a() { no_op(); }
		table used { actions = { a; } }
		table spare { actions = { a; } }
		control c { apply(used); }`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := prog.Tables["spare"]; !ok {
		t.Error("unapplied table should still exist for the control plane")
	}
}

func TestLexerPositions(t *testing.T) {
	toks, err := lexAll("action\n  foo")
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].line != 2 || toks[1].col != 3 {
		t.Errorf("position tracking wrong: %+v", toks[1])
	}
}

func TestNestedControlFlow(t *testing.T) {
	src := `
		action a() { no_op(); }
		action go_left() { no_op(); }
		table outer { actions = { go_left; a; } }
		table inner1 { actions = { a; } }
		table inner2 { actions = { a; } }
		table tail { actions = { a; } }
		control c {
			switch (apply(outer)) {
				go_left: {
					if (meta.y > 5) { apply(inner1); } else { apply(inner2); }
				}
			}
			apply(tail);
		}`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	outer := prog.Tables["outer"]
	if outer.ActionNext["go_left"] != "cond_1" {
		t.Errorf("go_left -> %q", outer.ActionNext["go_left"])
	}
	if outer.BaseNext != "tail" {
		t.Errorf("default -> %q", outer.BaseNext)
	}
	cond := prog.Conds["cond_1"]
	if cond.TrueNext != "inner1" || cond.FalseNext != "inner2" {
		t.Fatalf("cond = %+v", cond)
	}
	if prog.Tables["inner1"].BaseNext != "tail" || prog.Tables["inner2"].BaseNext != "tail" {
		t.Error("nested arms should rejoin at tail")
	}
}

const entriesSrc = `
action deny() { drop(); }
action permit() { no_op(); }
action fwd(port) { forward(port); }

table firewall {
    key = { ipv4.srcAddr: ternary; tcp.dport: exact; }
    actions = { deny; permit; }
    default_action = permit;
    const entries = {
        (0x0a000000:0xff000000, 23): deny() prio 9;
        (0, 8080): permit() prio 1;
    }
}

table rt {
    key = { ipv4.dstAddr: lpm; }
    actions = { fwd; permit; }
    const entries = {
        (0x0a000000:lpm:8): fwd(3);
        (0x0a0a0a01): fwd(7);
    }
}

control ingress {
    apply(firewall);
    apply(rt);
}
`

func TestConstEntries(t *testing.T) {
	prog, err := Compile(entriesSrc)
	if err != nil {
		t.Fatal(err)
	}
	fw := prog.Tables["firewall"]
	if len(fw.Entries) != 2 {
		t.Fatalf("firewall entries = %d", len(fw.Entries))
	}
	e0 := fw.Entries[0]
	if e0.Action != "deny" || e0.Priority != 9 {
		t.Errorf("entry0 = %+v", e0)
	}
	if e0.Match[0].Value != 0x0a000000 || e0.Match[0].Mask != 0xff000000 {
		t.Errorf("ternary match = %+v", e0.Match[0])
	}
	if e0.Match[1].Value != 23 {
		t.Errorf("exact match = %+v", e0.Match[1])
	}
	// Bare value on a ternary key becomes exact-as-ternary (full mask).
	if fw.Entries[1].Match[0].Mask != fw.Keys[0].FullMask() {
		t.Errorf("bare ternary value should get full mask: %+v", fw.Entries[1].Match[0])
	}
	rt := prog.Tables["rt"]
	if rt.Entries[0].Match[0].PrefixLen != 8 {
		t.Errorf("lpm prefix = %+v", rt.Entries[0].Match[0])
	}
	if rt.Entries[0].Args[0] != "3" {
		t.Errorf("entry args = %v", rt.Entries[0].Args)
	}
	// Bare value on an LPM key becomes a host route.
	if rt.Entries[1].Match[0].PrefixLen != 32 {
		t.Errorf("bare lpm value should be a /32: %+v", rt.Entries[1].Match[0])
	}
	// And the compiled program executes with those entries.
	nic, err := nicsim.New(prog, nicsim.Config{Params: costmodel.BlueField2()})
	if err != nil {
		t.Fatal(err)
	}
	telnet := &packet.Packet{
		Eth: packet.Ethernet{Type: packet.EtherTypeIPv4},
		IP:  packet.IPv4{TTL: 64, Protocol: packet.ProtoTCP, SrcAddr: 0x0a010101, DstAddr: 0x0a0a0a01},
		TCP: packet.TCP{SrcPort: 1, DstPort: 23}, HasIPv4: true, HasTCP: true,
	}
	if r := nic.Process(telnet); !r.Dropped {
		t.Error("const entry should drop 10.x telnet")
	}
	web := telnet.Clone()
	web.TCP.DstPort = 80
	web.IP.SrcAddr = 0x0b000001
	if r := nic.Process(web); r.Dropped {
		t.Error("web flow should pass")
	}
	if v := web.GetID(packet.FieldIDFor("meta.egress_port")); v != 7 {
		t.Errorf("host route should forward to 7, got %d", v)
	}
}

func TestConstEntriesErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"arity", `
			action a() { no_op(); }
			table t { key = { f.x: exact; f.y: exact; } actions = { a; }
				const entries = { (1): a(); } }
			control c { apply(t); }`, "match values"},
		{"ghost action", `
			action a() { no_op(); }
			table t { key = { f.x: exact; } actions = { a; }
				const entries = { (1): ghost(); } }
			control c { apply(t); }`, "unknown action"},
		{"too wide", `
			action a() { no_op(); }
			table t { key = { ipv4.tos: exact; } actions = { a; }
				const entries = { (0x1ff): a(); } }
			control c { apply(t); }`, "line 4: p4ir: malformed entry: P4S06"},
		{"mask on exact", `
			action a() { no_op(); }
			table t { key = { f.x: exact; } actions = { a; }
				const entries = { (1:0xff): a(); } }
			control c { apply(t); }`, "non-ternary"},
		{"prefix on exact", `
			action a() { no_op(); }
			table t { key = { f.x: exact; } actions = { a; }
				const entries = { (1:lpm:8): a(); } }
			control c { apply(t); }`, "non-lpm"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Compile(c.src)
			if err == nil {
				t.Fatal("accepted invalid entries")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q missing %q", err, c.want)
			}
		})
	}
}

// LoadFile is every command's program argument: source compiled by its
// suffix, JSON otherwise, and errors that name the failed step in the words
// the commands print.
func TestLoadFile(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	compiled, err := LoadFile(write("demo.p4", demoSrc))
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(compiled)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(write("demo.json", string(data)))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Digest() != compiled.Digest() {
		t.Error("the JSON of a compiled program loads as a different program")
	}
	for path, want := range map[string]string{
		filepath.Join(dir, "missing.p4"):    "loading program: ",
		filepath.Join(dir, "missing.json"):  "loading program: ",
		write("bad.json", "{"):              "loading program: ",
		write("bad.p4", "table t { key = "): "compiling P4: ",
	} {
		if _, err := LoadFile(path); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("LoadFile(%s) = %v, want an error starting %q", filepath.Base(path), err, want)
		}
	}
}
