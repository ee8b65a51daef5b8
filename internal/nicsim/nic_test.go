package nicsim

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/profile"
)

func pkt(src, dst uint32, sport, dport uint16) *packet.Packet {
	return &packet.Packet{
		Eth:     packet.Ethernet{Type: packet.EtherTypeIPv4},
		IP:      packet.IPv4{TTL: 64, Protocol: packet.ProtoTCP, SrcAddr: src, DstAddr: dst},
		TCP:     packet.TCP{SrcPort: sport, DstPort: dport},
		HasIPv4: true, HasTCP: true,
		WireLen: 512,
	}
}

// params with clean numbers for latency assertions.
func testParams() costmodel.Params {
	return costmodel.Params{
		Name: "test", Lmat: 10, Lact: 2, BranchFactor: 0.1,
		Cores: 4, LineRateGbps: 100, CPUSlowdown: 5, MigrationLatency: 100,
		CounterUpdate: 1,
	}
}

func exactTable(name, field string, next string, entries ...p4ir.Entry) p4ir.TableSpec {
	return p4ir.TableSpec{
		Name: name,
		Keys: []p4ir.Key{{Field: field, Kind: p4ir.MatchExact, Width: packet.FieldWidth(field)}},
		Actions: []*p4ir.Action{
			p4ir.NewAction("hit_act", p4ir.Prim("modify_field", "meta."+name, "1")),
			p4ir.NoopAction("miss_act"),
		},
		DefaultAction: "miss_act",
		Next:          next,
		Entries:       entries,
	}
}

func e(action string, vals ...uint64) p4ir.Entry {
	en := p4ir.Entry{Action: action}
	for _, v := range vals {
		en.Match = append(en.Match, p4ir.MatchValue{Value: v})
	}
	return en
}

func TestProcessExactMatchLatency(t *testing.T) {
	prog, err := p4ir.ChainTables("p", []p4ir.TableSpec{
		exactTable("t1", "ipv4.dstAddr", "", e("hit_act", 42)),
	})
	if err != nil {
		t.Fatal(err)
	}
	nic, err := New(prog, Config{Params: testParams()})
	if err != nil {
		t.Fatal(err)
	}
	// Hit: 1 probe (10) + 1 primitive (2) = 12.
	r := nic.Process(pkt(1, 42, 1000, 80))
	if math.Abs(r.LatencyNs-12) > 1e-9 {
		t.Errorf("hit latency = %v, want 12", r.LatencyNs)
	}
	if v, _ := func() (uint64, bool) { p := pkt(1, 42, 0, 0); nic.Process(p); return p.Get("meta.t1") }(); v != 1 {
		t.Errorf("hit action should set meta.t1, got %v", v)
	}
	// Miss: 1 probe + 1 no_op primitive = 12 as well (miss_act has 1 prim).
	r2 := nic.Process(pkt(1, 7, 1000, 80))
	if math.Abs(r2.LatencyNs-12) > 1e-9 {
		t.Errorf("miss latency = %v, want 12", r2.LatencyNs)
	}
	if r.Dropped || r2.Dropped {
		t.Error("nothing should drop")
	}
}

func TestLPMLongestPrefixWins(t *testing.T) {
	tbl := p4ir.TableSpec{
		Name: "rt",
		Keys: []p4ir.Key{{Field: "ipv4.dstAddr", Kind: p4ir.MatchLPM, Width: 32}},
		Actions: []*p4ir.Action{
			p4ir.NewAction("to1", p4ir.Prim("modify_field", "meta.port", "1")),
			p4ir.NewAction("to2", p4ir.Prim("modify_field", "meta.port", "2")),
			p4ir.NoopAction("miss"),
		},
		DefaultAction: "miss",
		Entries: []p4ir.Entry{
			{Match: []p4ir.MatchValue{{Value: 0x0a000000, PrefixLen: 8}}, Action: "to1"},
			{Match: []p4ir.MatchValue{{Value: 0x0a010000, PrefixLen: 16}}, Action: "to2"},
		},
	}
	prog, err := p4ir.ChainTables("p", []p4ir.TableSpec{tbl})
	if err != nil {
		t.Fatal(err)
	}
	nic, err := New(prog, Config{Params: testParams()})
	if err != nil {
		t.Fatal(err)
	}
	p1 := pkt(1, 0x0a020304, 0, 0) // matches /8 only
	nic.Process(p1)
	if v, _ := p1.Get("meta.port"); v != 1 {
		t.Errorf("10.2.3.4 should take /8 route, port=%v", v)
	}
	p2 := pkt(1, 0x0a010203, 0, 0) // matches /16 (longer)
	r := nic.Process(p2)
	if v, _ := p2.Get("meta.port"); v != 2 {
		t.Errorf("10.1.2.3 should take /16 route, port=%v", v)
	}
	// Two distinct prefix lengths → 2 probes → 20 + action 2 = 22.
	if math.Abs(r.LatencyNs-22) > 1e-9 {
		t.Errorf("LPM latency = %v, want 22 (m=2)", r.LatencyNs)
	}
}

func TestTernaryPriorityWins(t *testing.T) {
	tbl := p4ir.TableSpec{
		Name: "acl",
		Keys: []p4ir.Key{{Field: "ipv4.srcAddr", Kind: p4ir.MatchTernary, Width: 32}},
		Actions: []*p4ir.Action{
			p4ir.DropAction(),
			p4ir.NewAction("allow", p4ir.Prim("no_op")),
		},
		DefaultAction: "allow",
		Entries: []p4ir.Entry{
			{Priority: 1, Match: []p4ir.MatchValue{{Value: 0x0a000000, Mask: 0xff000000}}, Action: "allow"},
			{Priority: 9, Match: []p4ir.MatchValue{{Value: 0x0a0a0000, Mask: 0xffff0000}}, Action: "drop_packet"},
		},
	}
	prog, err := p4ir.ChainTables("p", []p4ir.TableSpec{tbl})
	if err != nil {
		t.Fatal(err)
	}
	nic, err := New(prog, Config{Params: testParams()})
	if err != nil {
		t.Fatal(err)
	}
	if r := nic.Process(pkt(0x0a010101, 2, 0, 0)); r.Dropped {
		t.Error("10.1.1.1 matches only the allow rule")
	}
	if r := nic.Process(pkt(0x0a0a0101, 2, 0, 0)); !r.Dropped {
		t.Error("10.10.1.1 matches both; priority 9 drop must win")
	}
}

func TestDropHaltsExecution(t *testing.T) {
	prog, err := p4ir.ChainTables("p", []p4ir.TableSpec{
		{Name: "acl",
			Keys:          []p4ir.Key{{Field: "tcp.dport", Kind: p4ir.MatchExact, Width: 16}},
			Actions:       []*p4ir.Action{p4ir.DropAction(), p4ir.NoopAction("allow")},
			DefaultAction: "allow",
			Entries:       []p4ir.Entry{e("drop_packet", 23)}},
		exactTable("t2", "ipv4.dstAddr", ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	nic, err := New(prog, Config{Params: testParams()})
	if err != nil {
		t.Fatal(err)
	}
	r := nic.Process(pkt(1, 2, 1, 23))
	if !r.Dropped {
		t.Fatal("telnet packet should drop")
	}
	if len(r.Path) != 1 {
		t.Errorf("dropped packet visited %v; run-to-completion must halt at the drop", r.Path)
	}
	r2 := nic.Process(pkt(1, 2, 1, 80))
	if r2.Dropped || len(r2.Path) != 2 {
		t.Errorf("allowed packet should traverse both tables: %v", r2.Path)
	}
	// Dropped packets are cheaper — the reordering premise.
	if r.LatencyNs >= r2.LatencyNs {
		t.Errorf("dropped %v should be cheaper than full path %v", r.LatencyNs, r2.LatencyNs)
	}
}

// TestEmptyNodeNameRejected: "" spells the sink. A node of that name once
// passed Validate; the emulator then resolved a → "" to it and dropped
// every packet, while the rest of the toolchain read the edge as egress.
func TestEmptyNodeNameRejected(t *testing.T) {
	prog := p4ir.NewProgram("p")
	prog.Root = "a"
	prog.Tables["a"] = &p4ir.Table{Name: "a", Actions: []*p4ir.Action{p4ir.NoopAction("pass")}, DefaultAction: "pass"}
	drop := p4ir.DropAction()
	prog.Tables[""] = &p4ir.Table{Actions: []*p4ir.Action{drop}, DefaultAction: drop.Name}
	var ve *p4ir.ValidationError
	if err := prog.Validate(); !errors.As(err, &ve) || len(ve.Diags) != 1 || ve.Diags[0].Code != p4ir.CodeEmptyName {
		t.Fatalf("Validate = %v, want one %s", err, p4ir.CodeEmptyName)
	}
	if _, err := New(prog, Config{Params: testParams()}); err == nil {
		t.Fatal(`New accepted a node named ""`)
	}
}

func TestConditionalRouting(t *testing.T) {
	prog := p4ir.NewBuilder("p").
		Cond("c", "tcp.dport == 80", "web", "other", "tcp.dport").
		Table(exactTable("web", "ipv4.dstAddr", "")).
		Table(exactTable("other", "ipv4.srcAddr", "")).
		Root("c").MustBuild()
	nic, err := New(prog, Config{Params: testParams()})
	if err != nil {
		t.Fatal(err)
	}
	r := nic.Process(pkt(1, 2, 1, 80))
	if len(r.Path) != 2 || r.Path[1] != "web" {
		t.Errorf("port-80 path = %v", r.Path)
	}
	r2 := nic.Process(pkt(1, 2, 1, 443))
	if len(r2.Path) != 2 || r2.Path[1] != "other" {
		t.Errorf("port-443 path = %v", r2.Path)
	}
	// Branch cost = 0.1 * 10 = 1; table = 12 → 13.
	if math.Abs(r.LatencyNs-13) > 1e-9 {
		t.Errorf("latency = %v, want 13", r.LatencyNs)
	}
}

func TestUnknownConditionalFailsBuild(t *testing.T) {
	prog := p4ir.NewBuilder("p").
		Cond("c", "something weird", "a", "a").
		Table(exactTable("a", "ipv4.dstAddr", "")).
		Root("c").MustBuild()
	if _, err := New(prog, Config{Params: testParams()}); err == nil {
		t.Error("uncompilable conditional must fail New")
	}
}

func TestSwitchCaseTableRouting(t *testing.T) {
	prog := p4ir.NewBuilder("p").
		Table(p4ir.TableSpec{
			Name: "classify",
			Keys: []p4ir.Key{{Field: "tcp.dport", Kind: p4ir.MatchExact, Width: 16}},
			Actions: []*p4ir.Action{
				p4ir.NewAction("web", p4ir.Prim("no_op")),
				p4ir.NewAction("dns", p4ir.Prim("no_op")),
				p4ir.NoopAction("default_path"),
			},
			DefaultAction: "default_path",
			ActionNext:    map[string]string{"web": "wtab", "dns": "dtab"},
			Next:          "fallback",
			Entries:       []p4ir.Entry{e("web", 80), e("dns", 53)},
		}).
		Table(exactTable("wtab", "ipv4.dstAddr", "")).
		Table(exactTable("dtab", "ipv4.dstAddr", "")).
		Table(exactTable("fallback", "ipv4.dstAddr", "")).
		Root("classify").MustBuild()
	nic, err := New(prog, Config{Params: testParams()})
	if err != nil {
		t.Fatal(err)
	}
	if r := nic.Process(pkt(1, 2, 1, 80)); r.Path[1] != "wtab" {
		t.Errorf("port 80 → %v", r.Path)
	}
	if r := nic.Process(pkt(1, 2, 1, 53)); r.Path[1] != "dtab" {
		t.Errorf("port 53 → %v", r.Path)
	}
	if r := nic.Process(pkt(1, 2, 1, 9999)); r.Path[1] != "fallback" {
		t.Errorf("default → %v", r.Path)
	}
}

func TestFlowCacheHitSkipsSpan(t *testing.T) {
	// Build optimized-style program by hand: cache covering t1,t2.
	prog := p4ir.NewBuilder("p").
		Table(p4ir.TableSpec{
			Name: "cachetab",
			Keys: []p4ir.Key{{Field: "ipv4.dstAddr", Kind: p4ir.MatchExact, Width: 32}},
			Actions: []*p4ir.Action{
				{Name: "cache_hit"}, {Name: "cache_miss"},
			},
			DefaultAction: "cache_miss",
			ActionNext:    map[string]string{"cache_hit": "t3", "cache_miss": "t1"},
		}).
		Table(exactTable("t1", "ipv4.dstAddr", "t2", e("hit_act", 5))).
		Table(exactTable("t2", "ipv4.srcAddr", "t3", e("hit_act", 9))).
		Table(exactTable("t3", "tcp.dport", "")).
		Root("cachetab").MustBuild()
	prog.Tables["cachetab"].SetCacheMeta(p4ir.CacheSpec{
		Table: "cachetab", Kind: p4ir.KindCache,
		Covers: []string{"t1", "t2"}, HitNext: "t3", MissNext: "t1",
		Budget: 128,
	})
	nic, err := New(prog, Config{Params: testParams()})
	if err != nil {
		t.Fatal(err)
	}
	// First packet: miss → full path, fills cache.
	p1 := pkt(9, 5, 1, 80)
	r1 := nic.Process(p1)
	if want := []string{"cachetab", "t1", "t2", "t3"}; len(r1.Path) != 4 {
		t.Fatalf("miss path = %v, want %v", r1.Path, want)
	}
	// Second same-flow packet: hit → skips t1, t2.
	p2 := pkt(9, 5, 1, 80)
	r2 := nic.Process(p2)
	if len(r2.Path) != 2 || r2.Path[1] != "t3" {
		t.Fatalf("hit path = %v, want [cachetab t3]", r2.Path)
	}
	if r2.LatencyNs >= r1.LatencyNs {
		t.Errorf("cache hit %v should be faster than miss %v", r2.LatencyNs, r1.LatencyNs)
	}
	// Cached writes applied: t1 and t2 hit actions set meta fields.
	if v, _ := p2.Get("meta.t1"); v != 1 {
		t.Error("cached write meta.t1 missing")
	}
	if v, _ := p2.Get("meta.t2"); v != 1 {
		t.Error("cached write meta.t2 missing")
	}
	st := nic.CacheStatsAll()
	if len(st) != 1 || st[0].Hits != 1 || st[0].Misses != 1 {
		t.Errorf("cache stats = %+v", st)
	}
}

func TestFlowCacheCachesDropVerdict(t *testing.T) {
	prog := p4ir.NewBuilder("p").
		Table(p4ir.TableSpec{
			Name:          "cachetab",
			Keys:          []p4ir.Key{{Field: "tcp.dport", Kind: p4ir.MatchExact, Width: 16}},
			Actions:       []*p4ir.Action{{Name: "cache_hit"}, {Name: "cache_miss"}},
			DefaultAction: "cache_miss",
			ActionNext:    map[string]string{"cache_hit": "", "cache_miss": "acl"},
		}).
		Table(p4ir.TableSpec{
			Name:          "acl",
			Keys:          []p4ir.Key{{Field: "tcp.dport", Kind: p4ir.MatchExact, Width: 16}},
			Actions:       []*p4ir.Action{p4ir.DropAction(), p4ir.NoopAction("allow")},
			DefaultAction: "allow",
			Entries:       []p4ir.Entry{e("drop_packet", 23)},
		}).
		Root("cachetab").MustBuild()
	prog.Tables["cachetab"].SetCacheMeta(p4ir.CacheSpec{
		Table: "cachetab", Kind: p4ir.KindCache,
		Covers: []string{"acl"}, HitNext: "", MissNext: "acl", Budget: 16,
	})
	nic, err := New(prog, Config{Params: testParams()})
	if err != nil {
		t.Fatal(err)
	}
	r1 := nic.Process(pkt(1, 2, 5, 23))
	if !r1.Dropped {
		t.Fatal("first packet should drop via acl")
	}
	r2 := nic.Process(pkt(1, 2, 5, 23))
	if !r2.Dropped {
		t.Fatal("second packet should drop via cached verdict")
	}
	if len(r2.Path) != 1 {
		t.Errorf("cached drop should halt at the cache: %v", r2.Path)
	}
}

func TestCacheLRUEvictionAndBudget(t *testing.T) {
	fc := newFlowCache(p4ir.CacheSpec{Table: "c", Kind: p4ir.KindCache, Budget: 2})
	a, b, c := []uint64{1}, []uint64{2}, []uint64{3}
	getOrFill(fc, a, nil, 1)
	getOrFill(fc, b, nil, 1)
	fc.get(a) // refresh a
	getOrFill(fc, c, nil, 1)
	if id, _ := fc.get(b); id >= 0 {
		t.Error("b should have been evicted (LRU)")
	}
	if id, _ := fc.get(a); id < 0 {
		t.Error("a was refreshed; must survive")
	}
	if st := fc.stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Errorf("stats = %+v", st)
	}
}

// TestFlowCacheEntryFootprint bounds the live heap of a full cache: three
// key words and four writes cost 24 + 24 + 48 bytes in the flat arrays
// plus the index's share, and no entry holds a buffer of its own (a node
// with key and writes slices costs about 160 bytes).
func TestFlowCacheEntryFootprint(t *testing.T) {
	const budget = 1024
	writes := []fieldWrite{{id: 1, value: 1}, {id: 2, value: 2}, {id: 3, value: 3}, {id: 4, value: 4}}
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	fc := newFlowCache(p4ir.CacheSpec{Table: "c", Kind: p4ir.KindCache, Budget: budget})
	key := make([]uint64, 3)
	for i := range budget {
		key[0], key[1], key[2] = uint64(i), uint64(i)*0x9e3779b97f4a7c15, 7
		getOrFill(fc, key, writes, 1)
	}
	perEntry := float64(int64(live())-int64(before)) / budget
	runtime.KeepAlive(fc)
	if st := fc.stats(); st.Entries != budget {
		t.Fatalf("%d entries, want %d", st.Entries, budget)
	}
	if perEntry > 120 {
		t.Errorf("a full cache holds %.0f bytes per entry, want at most 120", perEntry)
	}
}

func TestCacheInsertRateLimit(t *testing.T) {
	fc := newFlowCache(p4ir.CacheSpec{Table: "c", Kind: p4ir.KindCache, Budget: 1000, InsertLimit: 5})
	accepted := 0
	for i := 0; i < 100; i++ {
		if getOrFill(fc, []uint64{uint64(i)}, nil, 1) {
			accepted++
		}
	}
	// Bucket starts full with `rate` tokens: ~5 inserts allowed at t=0.
	if accepted > 6 {
		t.Errorf("rate limiter allowed %d inserts at one instant, want <= 6", accepted)
	}
	if st := fc.stats(); st.Rejected != uint64(100-accepted) {
		t.Errorf("rejected = %d, want %d", st.Rejected, 100-accepted)
	}
}

func TestEntryUpdateInvalidatesCache(t *testing.T) {
	prog := p4ir.NewBuilder("p").
		Table(p4ir.TableSpec{
			Name:          "cachetab",
			Keys:          []p4ir.Key{{Field: "ipv4.dstAddr", Kind: p4ir.MatchExact, Width: 32}},
			Actions:       []*p4ir.Action{{Name: "cache_hit"}, {Name: "cache_miss"}},
			DefaultAction: "cache_miss",
			ActionNext:    map[string]string{"cache_hit": "", "cache_miss": "t1"},
		}).
		Table(exactTable("t1", "ipv4.dstAddr", "", e("hit_act", 5))).
		Root("cachetab").MustBuild()
	prog.Tables["cachetab"].SetCacheMeta(p4ir.CacheSpec{
		Table: "cachetab", Kind: p4ir.KindCache,
		Covers: []string{"t1"}, HitNext: "", MissNext: "t1", Budget: 16,
	})
	nic, err := New(prog, Config{Params: testParams()})
	if err != nil {
		t.Fatal(err)
	}
	nic.Process(pkt(1, 5, 1, 80)) // fill
	if r := nic.Process(pkt(1, 5, 1, 80)); len(r.Path) != 1 {
		t.Fatalf("expected cache hit, path=%v", r.Path)
	}
	if err := nic.InsertEntry("t1", e("hit_act", 77)); err != nil {
		t.Fatal(err)
	}
	// Cache must be cold again.
	if r := nic.Process(pkt(1, 5, 1, 80)); len(r.Path) != 2 {
		t.Errorf("after update expected miss path, got %v", r.Path)
	}
	st := nic.CacheStatsAll()
	if st[0].Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", st[0].Invalidations)
	}
}

func TestHeterogeneousMigrationCost(t *testing.T) {
	prog, err := p4ir.ChainTables("p", []p4ir.TableSpec{
		exactTable("a", "ipv4.dstAddr", "b"),
		exactTable("b", "ipv4.srcAddr", "c"), // CPU
		exactTable("c", "tcp.dport", ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	pm := testParams()
	nic, err := New(prog, Config{Params: pm, TierTables: map[string]int{"b": 1}})
	if err != nil {
		t.Fatal(err)
	}
	r := nic.Process(pkt(1, 2, 3, 4))
	if r.Migrations != 2 {
		t.Errorf("migrations = %d, want 2 (ASIC→CPU→ASIC)", r.Migrations)
	}
	// a: 12, migrate 100, b on CPU: 12*5=60, migrate 100, c: 12 → 284.
	if math.Abs(r.LatencyNs-284) > 1e-9 {
		t.Errorf("latency = %v, want 284", r.LatencyNs)
	}
}

func TestTableCopyingAvoidsMigration(t *testing.T) {
	prog, err := p4ir.ChainTables("p", []p4ir.TableSpec{
		exactTable("a", "ipv4.dstAddr", "b"),
		exactTable("b", "ipv4.srcAddr", "c"),
		exactTable("c", "tcp.dport", ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	pm := testParams()
	// b is a CPU table; a and c copied to CPU would avoid migrations, but
	// here we copy only b to ASIC — packet never migrates.
	nic, err := New(prog, Config{
		Params:       pm,
		TierTables:   map[string]int{"b": 1},
		CopiedTables: map[string]bool{"b": true},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := nic.Process(pkt(1, 2, 3, 4))
	if r.Migrations != 0 {
		t.Errorf("copied table should avoid migration, got %d", r.Migrations)
	}
	if math.Abs(r.LatencyNs-36) > 1e-9 {
		t.Errorf("latency = %v, want 36 (all ASIC speed)", r.LatencyNs)
	}
}

func TestUnsupportedTableForcedToCPU(t *testing.T) {
	prog, err := p4ir.ChainTables("p", []p4ir.TableSpec{
		{Name: "x", Keys: []p4ir.Key{{Field: "ipv4.dstAddr", Kind: p4ir.MatchExact, Width: 32}},
			Actions: []*p4ir.Action{p4ir.NoopAction("n")}, Unsupported: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	nic, err := New(prog, Config{Params: testParams()})
	if err != nil {
		t.Fatal(err)
	}
	r := nic.Process(pkt(1, 2, 3, 4))
	if r.Migrations != 1 {
		t.Errorf("unsupported table must run on CPU: migrations=%d", r.Migrations)
	}
}

func TestVendorCacheWholeProgram(t *testing.T) {
	prog, err := p4ir.ChainTables("p", []p4ir.TableSpec{
		exactTable("t1", "ipv4.dstAddr", "t2", e("hit_act", 5)),
		exactTable("t2", "ipv4.srcAddr", "", e("hit_act", 9)),
	})
	if err != nil {
		t.Fatal(err)
	}
	nic, err := New(prog, Config{Params: testParams(), VendorCache: true})
	if err != nil {
		t.Fatal(err)
	}
	r1 := nic.Process(pkt(9, 5, 1, 80))
	if r1.VendorCacheHit {
		t.Error("first packet cannot hit")
	}
	p2 := pkt(9, 5, 1, 80)
	r2 := nic.Process(p2)
	if !r2.VendorCacheHit {
		t.Fatal("same flow should hit vendor cache")
	}
	if v, _ := p2.Get("meta.t1"); v != 1 {
		t.Error("vendor cache must replay writes")
	}
	if r2.LatencyNs >= r1.LatencyNs {
		t.Errorf("vendor hit %v should beat full path %v", r2.LatencyNs, r1.LatencyNs)
	}
	// Different flow misses.
	if r3 := nic.Process(pkt(9, 6, 1, 80)); r3.VendorCacheHit {
		t.Error("different flow must miss")
	}
}

func TestInstrumentationCostAndSampling(t *testing.T) {
	prog, err := p4ir.ChainTables("p", []p4ir.TableSpec{
		exactTable("t1", "ipv4.dstAddr", "t2"),
		exactTable("t2", "ipv4.srcAddr", ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	col := profile.NewCollector()
	nic, err := New(prog, Config{Params: testParams(), Collector: col, Instrument: true})
	if err != nil {
		t.Fatal(err)
	}
	r := nic.Process(pkt(1, 2, 3, 4))
	if r.CounterUpdates != 2 {
		t.Errorf("counter updates = %d, want 2 (one per table)", r.CounterUpdates)
	}
	// 2 tables * 12 + 2 counters * 1 = 26.
	if math.Abs(r.LatencyNs-26) > 1e-9 {
		t.Errorf("latency = %v, want 26", r.LatencyNs)
	}
	prof := col.Snapshot()
	if prof.TableTotal("t1") != 1 || prof.TableTotal("t2") != 1 {
		t.Error("collector should have recorded both tables")
	}

	// With 1/4 sampling, only every 4th packet pays.
	col2 := profile.NewCollector()
	col2.SetSampling(4)
	nic2, _ := New(prog, Config{Params: testParams(), Collector: col2, Instrument: true})
	paid := 0
	for i := 0; i < 100; i++ {
		if r := nic2.Process(pkt(1, 2, 3, 4)); r.CounterUpdates > 0 {
			paid++
		}
	}
	if paid != 25 {
		t.Errorf("sampled packets = %d, want 25", paid)
	}
	if got := col2.Snapshot().TableTotal("t1"); got != 100 {
		t.Errorf("scaled count = %d, want 100", got)
	}
}

func TestMeasureThroughput(t *testing.T) {
	prog, err := p4ir.ChainTables("p", []p4ir.TableSpec{
		exactTable("t1", "ipv4.dstAddr", ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	nic, err := New(prog, Config{Params: testParams()})
	if err != nil {
		t.Fatal(err)
	}
	var pkts []*packet.Packet
	for i := 0; i < 100; i++ {
		pkts = append(pkts, pkt(uint32(i), 2, 3, 4))
	}
	m := nic.Measure(pkts)
	if m.Packets != 100 {
		t.Errorf("packets = %d", m.Packets)
	}
	if math.Abs(m.MeanLatencyNs-12) > 1e-9 {
		t.Errorf("mean latency = %v, want 12", m.MeanLatencyNs)
	}
	// 4 cores / 12ns = 333 Mpps * 4096 bits → capped at 100.
	if m.ThroughputGbps != 100 {
		t.Errorf("throughput = %v, want line rate 100", m.ThroughputGbps)
	}
	// Inputs not mutated.
	if v, _ := pkts[0].Get("meta.t1"); v != 0 {
		t.Error("Measure must not mutate inputs")
	}
}

func TestSwapProgramLive(t *testing.T) {
	progA, _ := p4ir.ChainTables("a", []p4ir.TableSpec{exactTable("t1", "ipv4.dstAddr", "")})
	progB, _ := p4ir.ChainTables("b", []p4ir.TableSpec{
		exactTable("t1", "ipv4.dstAddr", "t2"),
		exactTable("t2", "ipv4.srcAddr", ""),
	})
	nic, err := New(progA, Config{Params: testParams()})
	if err != nil {
		t.Fatal(err)
	}
	if r := nic.Process(pkt(1, 2, 3, 4)); len(r.Path) != 1 {
		t.Fatal("program A has one table")
	}
	if err := nic.Swap(progB); err != nil {
		t.Fatal(err)
	}
	if r := nic.Process(pkt(1, 2, 3, 4)); len(r.Path) != 2 {
		t.Error("after swap, program B has two tables")
	}
	// Concurrent swap + process must not race.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				nic.Process(pkt(uint32(i), 2, 3, 4))
			}
		}()
	}
	for i := 0; i < 20; i++ {
		if err := nic.Swap(progA); err != nil {
			t.Error(err)
		}
		if err := nic.Swap(progB); err != nil {
			t.Error(err)
		}
	}
	wg.Wait()
}

func TestNoiseIsBoundedAndDeterministic(t *testing.T) {
	prog, _ := p4ir.ChainTables("p", []p4ir.TableSpec{exactTable("t1", "ipv4.dstAddr", "")})
	mk := func(seed uint64) []float64 {
		nic, _ := New(prog, Config{Params: testParams(), Seed: seed, NoiseStdDev: 0.02})
		var out []float64
		for i := 0; i < 50; i++ {
			out = append(out, nic.Process(pkt(1, 2, 3, 4)).LatencyNs)
		}
		return out
	}
	a, b := mk(7), mk(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give identical noise")
		}
		if a[i] < 6 || a[i] > 24 {
			t.Errorf("noisy latency %v out of plausible range", a[i])
		}
	}
	c := mk(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

func TestEntryAPIErrors(t *testing.T) {
	prog, _ := p4ir.ChainTables("p", []p4ir.TableSpec{exactTable("t1", "ipv4.dstAddr", "")})
	nic, _ := New(prog, Config{Params: testParams()})
	if err := nic.InsertEntry("ghost", e("hit_act", 1)); err == nil {
		t.Error("insert into unknown table should fail")
	}
	if err := nic.InsertEntry("t1", p4ir.Entry{Action: "nope", Match: []p4ir.MatchValue{{Value: 1}}}); err == nil {
		t.Error("unknown action should fail")
	}
	if err := nic.InsertEntry("t1", p4ir.Entry{Action: "hit_act"}); err == nil {
		t.Error("wrong arity should fail")
	}
	if err := nic.DeleteEntry("t1", []p4ir.MatchValue{{Value: 9}}); err == nil {
		t.Error("deleting a missing entry should fail")
	}
	if err := nic.InsertEntry("t1", e("hit_act", 1)); err != nil {
		t.Error(err)
	}
	if err := nic.ModifyEntry("t1", []p4ir.MatchValue{{Value: 1}}, "miss_act", nil); err != nil {
		t.Error(err)
	}
	if err := nic.DeleteEntry("t1", []p4ir.MatchValue{{Value: 1}}); err != nil {
		t.Error(err)
	}
}

func TestMaxEntriesEnforced(t *testing.T) {
	prog, _ := p4ir.ChainTables("p", []p4ir.TableSpec{{
		Name: "t1", Keys: []p4ir.Key{{Field: "ipv4.dstAddr", Kind: p4ir.MatchExact, Width: 32}},
		Actions: []*p4ir.Action{p4ir.NoopAction("n")}, MaxEntries: 2,
	}})
	nic, _ := New(prog, Config{Params: testParams()})
	if err := nic.InsertEntry("t1", e("n", 1)); err != nil {
		t.Fatal(err)
	}
	if err := nic.InsertEntry("t1", e("n", 2)); err != nil {
		t.Fatal(err)
	}
	if err := nic.InsertEntry("t1", e("n", 3)); err == nil {
		t.Error("MaxEntries must be enforced")
	}
}

func offPathParams() costmodel.Params {
	pm := testParams()
	pm.OffPathSlowdown = 2
	pm.DMABaseNs = 100
	pm.DMAPerPacketNs = 20
	pm.DMABatch = 1
	return pm
}

func TestOffPathTierChargesDMACrossings(t *testing.T) {
	prog, err := p4ir.ChainTables("p", []p4ir.TableSpec{
		exactTable("a", "ipv4.dstAddr", "b"),
		exactTable("b", "ipv4.srcAddr", "c"), // off-path
		exactTable("c", "tcp.dport", ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	nic, err := New(prog, Config{Params: offPathParams(), TierTables: map[string]int{"b": 2}})
	if err != nil {
		t.Fatal(err)
	}
	r := nic.Process(pkt(1, 2, 3, 4))
	if r.Migrations != 2 || r.DMACrossings != 2 {
		t.Errorf("migrations=%d dma=%d, want 2/2 (ASIC→host→ASIC)", r.Migrations, r.DMACrossings)
	}
	// a: 12, DMA 100/1+20=120, b off-path: 12*2=24, DMA 120, c: 12 → 288.
	if math.Abs(r.LatencyNs-288) > 1e-9 {
		t.Errorf("latency = %v, want 288", r.LatencyNs)
	}
}

func TestTierAnnotationDrivesPlacement(t *testing.T) {
	prog, err := p4ir.ChainTables("p", []p4ir.TableSpec{
		exactTable("a", "ipv4.dstAddr", "b"),
		exactTable("b", "ipv4.srcAddr", ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	prog.Tables["b"].SetTierAssignment(2)
	nic, err := New(prog, Config{Params: offPathParams()})
	if err != nil {
		t.Fatal(err)
	}
	r := nic.Process(pkt(1, 2, 3, 4))
	if r.DMACrossings != 1 {
		t.Errorf("annotated off-path table should cost one DMA crossing, got %d", r.DMACrossings)
	}
	// Copied annotation suppresses the crossing.
	prog2 := prog.Clone()
	prog2.Tables["b"].SetTierAssignment(0)
	prog2.Tables["b"].SetTierCopied(true)
	if err := nic.Swap(prog2); err != nil {
		t.Fatal(err)
	}
	if r := nic.Process(pkt(1, 2, 3, 4)); r.Migrations != 0 {
		t.Errorf("tier-copied table must not migrate, got %d", r.Migrations)
	}
}

func TestOffPathTierClampsOnTwoTierTargets(t *testing.T) {
	prog, err := p4ir.ChainTables("p", []p4ir.TableSpec{
		exactTable("a", "ipv4.dstAddr", "b"),
		exactTable("b", "ipv4.srcAddr", ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	// testParams has no off-path tier: a tier-2 request degrades to the
	// NIC CPU and costs a plain on-path migration.
	nic, err := New(prog, Config{Params: testParams(), TierTables: map[string]int{"b": 2}})
	if err != nil {
		t.Fatal(err)
	}
	r := nic.Process(pkt(1, 2, 3, 4))
	if r.Migrations != 1 || r.DMACrossings != 0 {
		t.Errorf("migrations=%d dma=%d, want 1 on-path migration", r.Migrations, r.DMACrossings)
	}
	// a: 12, migrate 100, b on CPU: 12*5=60 → 172.
	if math.Abs(r.LatencyNs-172) > 1e-9 {
		t.Errorf("latency = %v, want 172", r.LatencyNs)
	}
}
