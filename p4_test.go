package pipeleon

import (
	"testing"
	"time"

	"pipeleon/internal/p4c"
)

// TestLoadP4AndOptimize drives the P4 source path end to end: compile
// testdata/dash.p4, install entries, collect a profile on the emulator,
// optimize, and verify the rewritten layout still honors the original
// semantics through the runtime's API mapping.
func TestLoadP4AndOptimize(t *testing.T) {
	prog, err := LoadProgram("testdata/dash.p4")
	if err != nil {
		t.Fatal(err)
	}
	if prog.Root != "direction_lookup" {
		t.Fatalf("root = %q", prog.Root)
	}
	if prog.NumNodes() != 9 { // 8 tables + 1 conditional
		t.Fatalf("nodes = %d, want 9", prog.NumNodes())
	}
	target := AgilioCX()
	col := NewCollector()
	emu, err := NewEmulator(prog, EmulatorConfig{Params: target, Collector: col, Instrument: true})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(prog, emu, col, target, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Install a blanket RDP block and a default route through the
	// original table names.
	if err := rt.InsertEntry("acl_level3", Entry{
		Priority: 9,
		Match:    []MatchValue{{Value: 3389, Mask: 0xffff}},
		Action:   "deny",
	}); err != nil {
		t.Fatal(err)
	}
	if err := rt.InsertEntry("routing", Entry{
		Match:  []MatchValue{{Value: 0x0a000000, PrefixLen: 8}},
		Action: "fwd", Args: []string{"7"},
	}); err != nil {
		t.Fatal(err)
	}
	gen := NewTrafficGen(31)
	gen.AddFlows(DropTargetedFlows(32, 400, "tcp.dport", 3389, 0.5)...)
	m := emu.Measure(gen.Batch(3000))
	if m.DropRate < 0.4 || m.DropRate > 0.6 {
		t.Fatalf("drop rate %v, want ~0.5", m.DropRate)
	}
	rep, err := rt.OptimizeOnce(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Gain <= 0 {
		t.Fatalf("expected a profitable plan, gain=%v", rep.Gain)
	}
	// Semantics preserved after deployment: the drop rule still fires.
	m2 := emu.Measure(gen.Batch(3000))
	if m2.DropRate < 0.4 || m2.DropRate > 0.6 {
		t.Errorf("drop rate after optimization %v, want ~0.5", m2.DropRate)
	}
	// And the optimized layout is measurably no slower.
	if m2.MeanLatencyNs > m.MeanLatencyNs*1.05 {
		t.Errorf("optimized %v ns vs original %v ns", m2.MeanLatencyNs, m.MeanLatencyNs)
	}
}

func TestCompileP4Inline(t *testing.T) {
	prog, err := p4c.Compile(`
		action a() { no_op(); }
		table t { key = { ipv4.dstAddr: exact; } actions = { a; } }
		control main { apply(t); }
	`)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Name != "main" || prog.Root != "t" {
		t.Errorf("prog = %q root %q", prog.Name, prog.Root)
	}
	if _, err := p4c.Compile(`control main { apply(ghost); }`); err == nil {
		t.Error("CompileP4 should surface compile errors")
	}
}
