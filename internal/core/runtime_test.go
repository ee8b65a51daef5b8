package core

import (
	"strings"
	"testing"
	"time"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/nicsim"
	"pipeleon/internal/opt"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/profile"
	"pipeleon/internal/target"
	"pipeleon/internal/trafficgen"
)

// aclProgram: two regular tables then two independent ACLs.
func aclProgram(t *testing.T) *p4ir.Program {
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
			Entries: []p4ir.Entry{
				{Match: []p4ir.MatchValue{{Value: dropVal}}, Action: "drop_packet"},
			},
		}
	}
	prog, err := p4ir.ChainTables("aclprog", []p4ir.TableSpec{
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

func newRig(t *testing.T, prog *p4ir.Program, cfg opt.Config) (*Runtime, *nicsim.NIC, *profile.Collector) {
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
	rt, err := NewRuntime(prog, target.NewLocal(nic, col), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt, nic, col
}

func drive(nic *nicsim.NIC, gen *trafficgen.Generator, n int) nicsim.Measurement {
	return nic.Measure(gen.Batch(n))
}

func TestRuntimeReordersHotACL(t *testing.T) {
	prog := aclProgram(t)
	cfg := opt.DefaultConfig()
	cfg.TopKFrac = 1
	cfg.EnableCache = false
	cfg.EnableMerge = false
	rt, nic, _ := newRig(t, prog, cfg)

	// 80% of traffic hits acl2's drop rule.
	gen := trafficgen.New(1, 0)
	gen.AddFlows(trafficgen.DropTargetedFlows(2, 2000, "tcp.dport", 23, 0.8)...)
	before := drive(nic, gen, 4000)

	rep, err := rt.OptimizeOnce(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Deployed {
		t.Fatalf("expected a deployment; report=%+v", rep)
	}
	// The deployed program should start with acl2.
	if cur := currentOf(rt); cur.Root != "acl2" {
		t.Errorf("root = %q, want acl2 promoted first (plan: %v)", cur.Root, rep.Plan)
	}
	after := drive(nic, gen, 4000)
	if after.MeanLatencyNs >= before.MeanLatencyNs {
		t.Errorf("reorder did not help: %.1f >= %.1f ns", after.MeanLatencyNs, before.MeanLatencyNs)
	}
	if rep.SearchTime <= 0 || rep.Gain <= 0 {
		t.Errorf("report incomplete: %+v", rep)
	}
}

func TestRuntimeAdaptsToDropFlip(t *testing.T) {
	// Figure 2's mechanism: drop concentration flips from acl2 to acl1;
	// the runtime must re-reorder.
	prog := aclProgram(t)
	cfg := opt.DefaultConfig()
	cfg.TopKFrac = 1
	cfg.EnableCache = false
	cfg.EnableMerge = false
	rt, nic, _ := newRig(t, prog, cfg)

	genA := trafficgen.New(1, 0)
	genA.AddFlows(trafficgen.DropTargetedFlows(2, 2000, "tcp.dport", 23, 0.8)...)
	drive(nic, genA, 4000)
	if _, err := rt.OptimizeOnce(time.Second); err != nil {
		t.Fatal(err)
	}
	if currentOf(rt).Root != "acl2" {
		t.Fatalf("phase 1 should promote acl2, got %q", currentOf(rt).Root)
	}

	// Phase 2: acl1 (sport 1111) now drops 80%.
	genB := trafficgen.New(3, 0)
	genB.AddFlows(trafficgen.DropTargetedFlows(4, 2000, "tcp.sport", 1111, 0.8)...)
	drive(nic, genB, 4000)
	if _, err := rt.OptimizeOnce(time.Second); err != nil {
		t.Fatal(err)
	}
	if currentOf(rt).Root != "acl1" {
		t.Errorf("phase 2 should promote acl1, got %q", currentOf(rt).Root)
	}
}

// ternaryProgram: two ternary tables, cache-friendly under high locality.
func ternaryProgram(t *testing.T) *p4ir.Program {
	t.Helper()
	mk := func(name, field string) p4ir.TableSpec {
		return p4ir.TableSpec{
			Name: name,
			Keys: []p4ir.Key{{Field: field, Kind: p4ir.MatchTernary, Width: packet.FieldWidth(field)}},
			Actions: []*p4ir.Action{
				p4ir.NewAction("set", p4ir.Prim("modify_field", "meta."+name, "1")),
				p4ir.NoopAction("pass"),
			},
			DefaultAction: "pass",
			Entries: []p4ir.Entry{
				{Priority: 1, Match: []p4ir.MatchValue{{Value: 0, Mask: 0}}, Action: "set"},
				{Priority: 2, Match: []p4ir.MatchValue{{Value: 1, Mask: 0xff}}, Action: "set"},
				{Priority: 3, Match: []p4ir.MatchValue{{Value: 2, Mask: 0xffff}}, Action: "set"},
				{Priority: 4, Match: []p4ir.MatchValue{{Value: 3, Mask: 0xffffff}}, Action: "set"},
				{Priority: 5, Match: []p4ir.MatchValue{{Value: 4, Mask: 0xffffffff}}, Action: "set"},
			},
		}
	}
	prog, err := p4ir.ChainTables("ternprog", []p4ir.TableSpec{
		mk("t1", "ipv4.srcAddr"),
		mk("t2", "ipv4.dstAddr"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestRuntimeDeploysCacheAndFeedsBackHitRate(t *testing.T) {
	prog := ternaryProgram(t)
	cfg := opt.DefaultConfig()
	cfg.TopKFrac = 1
	cfg.EnableMerge = false
	cfg.EnableReorder = false
	rt, nic, _ := newRig(t, prog, cfg)

	// Few flows → high locality → cache pays off.
	gen := trafficgen.New(5, 0)
	gen.AddFlows(trafficgen.UniformFlows(6, 20)...)
	drive(nic, gen, 3000)
	rep, err := rt.OptimizeOnce(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Deployed {
		t.Fatalf("cache plan expected: %+v", rep)
	}
	foundCache := false
	for name := range currentOf(rt).Tables {
		if strings.HasPrefix(name, "__cache__") {
			foundCache = true
		}
	}
	if !foundCache {
		t.Fatalf("no cache table deployed; plan=%v", rep.Plan)
	}
	// Drive traffic through the cache, then check hit-rate feedback.
	drive(nic, gen, 3000)
	rep2, err := rt.OptimizeOnce(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.HitRateFeedback) == 0 {
		t.Error("expected observed hit rates to feed back")
	}
	for span, rate := range rep2.HitRateFeedback {
		if rate < 0.5 {
			t.Errorf("span %s observed hit rate %v, expected high locality", span, rate)
		}
	}
}

// TestRuntimesKeepTheirOwnHitRates: two runtimes built from one Config
// whose HitRateOverride map is set must not share it — one device's
// observed cache hit rates are not another's.
func TestRuntimesKeepTheirOwnHitRates(t *testing.T) {
	prog := ternaryProgram(t)
	cfg := opt.DefaultConfig()
	cfg.TopKFrac = 1
	cfg.EnableMerge = false
	cfg.EnableReorder = false
	cfg.HitRateOverride = map[string]float64{}
	rt, nic, _ := newRig(t, prog, cfg)
	other, _, _ := newRig(t, prog, cfg)

	gen := trafficgen.New(5, 0)
	gen.AddFlows(trafficgen.UniformFlows(6, 20)...)
	drive(nic, gen, 3000)
	if _, err := rt.OptimizeOnce(time.Second); err != nil {
		t.Fatal(err)
	}
	drive(nic, gen, 3000)
	rep, err := rt.OptimizeOnce(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.HitRateFeedback) == 0 {
		t.Fatalf("no hit rate fed back: %+v", rep)
	}
	if len(other.cfg.HitRateOverride) != 0 || len(cfg.HitRateOverride) != 0 {
		t.Errorf("feedback leaked: other runtime %v, caller's config %v", other.cfg.HitRateOverride, cfg.HitRateOverride)
	}
}

func TestRuntimeAPIMappingFastPath(t *testing.T) {
	prog := aclProgram(t)
	cfg := opt.DefaultConfig()
	rt, nic, _ := newRig(t, prog, cfg)
	err := rt.InsertEntry("acl1", p4ir.Entry{
		Match: []p4ir.MatchValue{{Value: 9999}}, Action: "drop_packet",
	})
	if err != nil {
		t.Fatal(err)
	}
	// Entry active on the device: packets with sport 9999 drop.
	p := &packet.Packet{
		Eth: packet.Ethernet{Type: packet.EtherTypeIPv4},
		IP:  packet.IPv4{Protocol: packet.ProtoTCP, SrcAddr: 1, DstAddr: 2},
		TCP: packet.TCP{SrcPort: 9999, DstPort: 80}, HasIPv4: true, HasTCP: true,
	}
	if r := nic.Process(p); !r.Dropped {
		t.Error("inserted drop rule not active on device")
	}
	// And recorded in the original program.
	if got := len(rt.Original().Tables["acl1"].Entries); got != 2 {
		t.Errorf("orig acl1 entries = %d, want 2", got)
	}
	// Delete works too.
	if err := rt.DeleteEntry("acl1", []p4ir.MatchValue{{Value: 9999}}); err != nil {
		t.Fatal(err)
	}
	p2 := p.Clone()
	if r := nic.Process(p2); r.Dropped {
		t.Error("deleted rule still active")
	}
}

// mergeProgram is two small exact static tables — the planner should merge
// them into a pre-populated merged cache; inserts must then regenerate the
// cross product.
func mergeProgram(t *testing.T) *p4ir.Program {
	t.Helper()
	mk := func(name, field string, vals ...uint64) p4ir.TableSpec {
		ts := p4ir.TableSpec{
			Name:          name,
			Keys:          []p4ir.Key{{Field: field, Kind: p4ir.MatchExact, Width: packet.FieldWidth(field)}},
			Actions:       []*p4ir.Action{p4ir.NewAction("set", p4ir.Prim("modify_field", "meta."+name, "7")), p4ir.NoopAction("pass")},
			DefaultAction: "pass",
		}
		for _, v := range vals {
			ts.Entries = append(ts.Entries, p4ir.Entry{Match: []p4ir.MatchValue{{Value: v}}, Action: "set"})
		}
		return ts
	}
	prog, err := p4ir.ChainTables("mergeprog", []p4ir.TableSpec{
		mk("A", "ipv4.srcAddr", 1, 2),
		mk("B", "ipv4.dstAddr", 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestRuntimeAPIMappingThroughMerge(t *testing.T) {
	rt, nic, _ := newRig(t, mergeProgram(t), mergeConfig())
	mergeRound(t, rt, nic)
	merged := ""
	for name := range currentOf(rt).Tables {
		if strings.HasPrefix(name, "__merged_cache__") {
			merged = name
		}
	}
	if merged == "" {
		t.Fatalf("no merged cache deployed; plan=%v", rt.activePlan)
	}
	if got := len(currentOf(rt).Tables[merged].Entries); got != 2 {
		t.Fatalf("merged entries = %d, want 2x1", got)
	}
	// Insert into A: cross product must grow to 3x1.
	if err := rt.InsertEntry("A", p4ir.Entry{Match: []p4ir.MatchValue{{Value: 3}}, Action: "set"}); err != nil {
		t.Fatal(err)
	}
	var mergedTbl *p4ir.Table
	for name, tbl := range currentOf(rt).Tables {
		if strings.HasPrefix(name, "__merged_cache__") {
			mergedTbl = tbl
		}
	}
	if mergedTbl == nil {
		t.Fatal("merged cache vanished after insert")
	}
	if got := len(mergedTbl.Entries); got != 3 {
		t.Errorf("merged entries after insert = %d, want 3 (I(A)·N(B) amplification)", got)
	}
}

func TestRuntimeCounterTranslation(t *testing.T) {
	prog := ternaryProgram(t)
	cfg := opt.DefaultConfig()
	cfg.TopKFrac = 1
	cfg.EnableMerge = false
	cfg.EnableReorder = false
	rt, nic, col := newRig(t, prog, cfg)
	gen := trafficgen.New(5, 0)
	gen.AddFlows(trafficgen.UniformFlows(6, 10)...)
	drive(nic, gen, 2000)
	if _, err := rt.OptimizeOnce(time.Second); err != nil {
		t.Fatal(err)
	}
	// Cache deployed; drive more traffic (mostly hits).
	drive(nic, gen, 2000)
	optProf := col.Snapshot()
	origProf := rt.cmap.Translate(optProf, rt.Original())
	// Original tables should be credited with (roughly) all traffic even
	// though most packets short-circuited through the cache.
	if got := origProf.TableTotal("t1"); got < 1500 {
		t.Errorf("translated t1 total = %d, want ~2000", got)
	}
}
