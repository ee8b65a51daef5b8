package pipeleon

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
)

// demoProgram builds a small program through the public API.
func demoProgram(t testing.TB) *Program {
	t.Helper()
	prog, err := ChainTables("demo", []TableSpec{
		{
			Name: "screen",
			Keys: []Key{{Field: "ipv4.srcAddr", Kind: MatchTernary, Width: 32}},
			Actions: []*Action{
				NewAction("mark", Prim("modify_field", "meta.mark", "1")),
				NewAction("pass", Prim("no_op")),
			},
			DefaultAction: "pass",
			Entries: []Entry{
				{Priority: 1, Match: []MatchValue{{Value: 0x0a000000, Mask: 0xff000000}}, Action: "mark"},
			},
		},
		{
			Name: "acl",
			Keys: []Key{{Field: "tcp.dport", Kind: MatchExact, Width: 16}},
			Actions: []*Action{
				DropAction(),
				NewAction("allow", Prim("no_op")),
			},
			DefaultAction: "allow",
			Entries: []Entry{
				{Match: []MatchValue{{Value: 23}}, Action: "drop_packet"},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestPublicAPIEndToEnd(t *testing.T) {
	prog := demoProgram(t)
	target := BlueField2()
	col := NewCollector()
	emu, err := NewEmulator(prog, EmulatorConfig{Params: target, Collector: col, Instrument: true})
	if err != nil {
		t.Fatal(err)
	}
	gen := NewTrafficGen(1)
	gen.AddFlows(DropTargetedFlows(2, 500, "tcp.dport", 23, 0.7)...)
	before := emu.Measure(gen.Batch(2000))
	if before.DropRate < 0.6 || before.DropRate > 0.8 {
		t.Fatalf("drop rate %v, want ~0.7", before.DropRate)
	}
	prof := col.Snapshot()
	if got := ExpectedLatency(prog, prof, target); got <= 0 {
		t.Fatalf("expected latency %v", got)
	}
	o := DefaultOptions()
	o.TopKFrac = 1
	plan, err := Optimize(prog, prof, target, o)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Changed() {
		t.Fatal("expected an optimization plan (70% dropped at the last table)")
	}
	if plan.Gain() <= 0 {
		t.Fatalf("gain = %v", plan.Gain())
	}
	if err := emu.Swap(plan.Program); err != nil {
		t.Fatal(err)
	}
	emu.Measure(gen.Batch(1000)) // warm
	after := emu.Measure(gen.Batch(2000))
	if after.MeanLatencyNs >= before.MeanLatencyNs {
		t.Errorf("optimized layout not faster: %v >= %v", after.MeanLatencyNs, before.MeanLatencyNs)
	}
}

func TestPublicAPIRuntimeAndControl(t *testing.T) {
	prog := demoProgram(t)
	target := BlueField2()
	col := NewCollector()
	emu, err := NewEmulator(prog, EmulatorConfig{Params: target, Collector: col, Instrument: true})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(prog, emu, col, target, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve("127.0.0.1:0", rt, col)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := DialControl(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	// Optimize once so the deployed layout may differ from the original.
	gen := NewTrafficGen(3)
	gen.AddFlows(UniformFlows(4, 100)...)
	emu.Measure(gen.Batch(1000))
	if _, err := rt.OptimizeOnce(time.Second); err != nil {
		t.Fatal(err)
	}
	// Insert against the original table name.
	err = cl.InsertEntry("acl", Entry{Match: []MatchValue{{Value: 8080}}, Action: "drop_packet"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := cl.Program()
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() == 0 {
		t.Error("deployed program empty")
	}
	// The rule must be live: port-8080 traffic drops.
	g2 := NewTrafficGen(5)
	g2.AddFlows(DropTargetedFlows(6, 100, "tcp.dport", 8080, 1.0)...)
	m := emu.Measure(g2.Batch(500))
	if m.DropRate < 0.99 {
		t.Errorf("inserted rule not effective: drop rate %v", m.DropRate)
	}
}

func TestProgramFileRoundTrip(t *testing.T) {
	prog := demoProgram(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "prog.json")
	data, err := prog.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := LoadProgram(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != prog.NumNodes() || back.Root != prog.Root {
		t.Error("file round trip mangled the program")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	back2, err := p4ir.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	if back2.Name != prog.Name {
		t.Error("ReadProgram mismatch")
	}
}

func TestTargetsDiffer(t *testing.T) {
	bf, ag, em := BlueField2(), AgilioCX(), EmulatedNIC()
	if bf.Name == ag.Name || ag.Name == em.Name {
		t.Error("targets must be distinct")
	}
	if bf.LineRateGbps != 100 || ag.LineRateGbps != 40 {
		t.Error("line rates per the paper's setups")
	}
	if em.LPMFixedM != 3 || em.TernaryFixedM != 3 {
		t.Error("emulated NIC should pin LPM/ternary at 3x exact (§5.3.3)")
	}
	if math.Abs(em.Kernel().Cond-0.1*em.Lmat) > 1e-9 {
		t.Error("emulated NIC branch cost should be 1/10 of an exact probe")
	}
}

func TestParsePacketPublic(t *testing.T) {
	gen := NewTrafficGen(9)
	gen.AddFlows(Flow{Src: 1, Dst: 2, SPort: 3, DPort: 4})
	wire := gen.Batch(1)[0].Serialize()
	var p packet.Packet
	if err := packet.ParseInto(&p, wire); err != nil {
		t.Fatal(err)
	}
	if p.IP.SrcAddr != 1 || p.TCP.DstPort != 4 {
		t.Error("parse mismatch")
	}
}
