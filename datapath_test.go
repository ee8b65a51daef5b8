package pipeleon

// Tier-1 budgets for the packet path on the program the end-to-end
// benchmark's synth-shift workload runs: 110 tables, instrumented, a
// bound collector, an optimizer-chosen plan with flow caches deployed.
// Here all three per-packet stores are live — packet metadata past the
// inline slots, the collector's key sets, the flow caches.

import (
	"sync"
	"testing"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/nicsim"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/synth"
	"pipeleon/internal/trafficgen"
)

// synth110Deployed returns the emulator after one profiling window and
// the deploy of the plan searched from it, with the batch that drove it.
func synth110Deployed(tb testing.TB) (*nicsim.NIC, *Collector, []*packet.Packet) {
	tb.Helper()
	prog := synth.Program(synth.ProgramSpec{Pipelets: 40, AvgLen: 3, Category: synth.Mixed, Seed: 7})
	col := NewCollector()
	nic, err := nicsim.New(prog, nicsim.Config{
		Params: costmodel.BlueField2(), Collector: col, Instrument: true,
		Seed: 5, NoiseStdDev: 0.01, CacheFillCostNs: 500,
	})
	if err != nil {
		tb.Fatal(err)
	}
	gen := trafficgen.New(4, trafficgen.DefaultPacketBytes)
	gen.AddFlows(trafficgen.UniformFlows(8, 128)...)
	gen.SetSkew(0.9)
	pkts := gen.Batch(4096)
	nic.Measure(pkts)
	plan, err := Optimize(prog, col.Snapshot(), costmodel.BlueField2(), DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	if !plan.Changed() {
		tb.Fatal("the search found no plan for the 110-table program")
	}
	if err := nic.Swap(plan.Program); err != nil {
		tb.Fatal(err)
	}
	if len(nic.CacheStatsAll()) == 0 {
		tb.Fatal("the deployed plan has no flow cache")
	}
	col.Reset()
	return nic, col, pkts
}

// burstArena is the caller's side of ProcessBurst: scratch packets cloned
// into and a result per packet.
type burstArena struct {
	scratch [nicsim.BurstSize]packet.Packet
	ptrs    [nicsim.BurstSize]*packet.Packet
	results [nicsim.BurstSize]nicsim.Result
}

func newBurstArena() *burstArena {
	a := &burstArena{}
	for i := range a.ptrs {
		a.ptrs[i] = &a.scratch[i]
	}
	return a
}

// run processes pkts[lo:lo+BurstSize) (wrapping) as one burst.
func (a *burstArena) run(nic *nicsim.NIC, pkts []*packet.Packet, lo int) {
	for j := range a.ptrs {
		pkts[(lo+j)%len(pkts)].CloneInto(a.ptrs[j])
	}
	nic.ProcessBurst(a.ptrs[:], a.results[:])
}

func TestProcessBurstAllocatesNothingWhenWarm(t *testing.T) {
	nic, col, pkts := synth110Deployed(t)
	a := newBurstArena()
	for lo := 0; lo < len(pkts); lo += nicsim.BurstSize {
		a.run(nic, pkts, lo) // fills the caches, sizes every buffer
	}
	lo := 0
	allocs := testing.AllocsPerRun(200, func() {
		a.run(nic, pkts, lo)
		lo += nicsim.BurstSize
	})
	if allocs != 0 && !raceEnabled {
		t.Errorf("%v allocations per warm burst, want 0", allocs)
	}
	if p := col.Snapshot(); p.FlowCardinality == 0 || len(p.KeyCardinality) == 0 {
		t.Errorf("the profiling sink was not on the path: %d flows, %d tables with keys", p.FlowCardinality, len(p.KeyCardinality))
	}
}

// The same budget on the table shapes that used to probe a string-keyed
// map: a two-word exact table at conntrack size (hashed words, paged
// slots), two-word LPM and ternary tables (one hashed group per mask), all
// hit and missed, instrumented.
func TestProcessBurstAllocatesNothingOnMultiFieldTables(t *testing.T) {
	two := func(name string, kind p4ir.MatchKind, next string, n int) p4ir.TableSpec {
		ts := p4ir.TableSpec{
			Name: name, Next: next,
			Keys: []p4ir.Key{{Field: "ipv4.srcAddr", Kind: kind, Width: 32}, {Field: "tcp.sport", Kind: kind, Width: 16}},
			Actions: []*p4ir.Action{
				p4ir.NewAction("mark", p4ir.Prim("modify_field", "meta."+name, "$0")), p4ir.NoopAction("miss"),
			},
			DefaultAction: "miss",
		}
		for i := 0; i < n; i++ {
			ts.Entries = append(ts.Entries, p4ir.Entry{
				Match: []p4ir.MatchValue{
					{Value: uint64(i) << 8, PrefixLen: 24 + i%3*4, Mask: 0xffffff00},
					{Value: uint64(i) & 0xffff, PrefixLen: 16, Mask: []uint64{0xffff, 0xff00, 0}[i%3]},
				},
				Action: "mark", Args: []string{"7"}, Priority: i % 4,
			})
		}
		return ts
	}
	prog, err := p4ir.ChainTables("multifield", []p4ir.TableSpec{
		two("conntrack", p4ir.MatchExact, "routes", 2000), two("routes", p4ir.MatchLPM, "acl", 300), two("acl", p4ir.MatchTernary, "", 300),
	})
	if err != nil {
		t.Fatal(err)
	}
	nic, err := nicsim.New(prog, nicsim.Config{Params: costmodel.BlueField2(), Collector: NewCollector(), Instrument: true})
	if err != nil {
		t.Fatal(err)
	}
	pkts := make([]*packet.Packet, 1024)
	for i := range pkts {
		pkts[i] = &packet.Packet{
			Eth: packet.Ethernet{Type: packet.EtherTypeIPv4},
			IP:  packet.IPv4{TTL: 64, Protocol: packet.ProtoTCP, SrcAddr: uint32(3*i) << 8, DstAddr: 9},
			TCP: packet.TCP{SrcPort: uint16(3 * i), DstPort: 80}, HasIPv4: true, HasTCP: true, WireLen: 512,
		}
	}
	a := newBurstArena()
	for lo := 0; lo < len(pkts); lo += nicsim.BurstSize {
		a.run(nic, pkts, lo)
	}
	lo := 0
	allocs := testing.AllocsPerRun(200, func() {
		a.run(nic, pkts, lo)
		lo += nicsim.BurstSize
	})
	if allocs != 0 && !raceEnabled {
		t.Errorf("%v allocations per warm burst, want 0", allocs)
	}
}

// MeasureParallel on a cached program while entry updates invalidate the
// caches and the runtime snapshots the profile: the window the race
// detector has to clear.
func TestMeasureParallelWithInvalidationAndSnapshot(t *testing.T) {
	nic, col, pkts := synth110Deployed(t)
	table, entry := exactTableEntry(t, nic.Program())
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := nic.InsertEntry(table, entry); err != nil {
				t.Error(err)
				return
			}
			if err := nic.DeleteEntry(table, entry.Match); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				col.Snapshot()
			}
		}
	}()
	want := len(pkts)
	for i := 0; i < 3; i++ {
		if m := nic.MeasureParallel(pkts, 4); m.Packets != want {
			t.Errorf("measured %d packets, want %d", m.Packets, want)
		}
	}
	close(stop)
	wg.Wait()
	var inval uint64
	for _, cs := range nic.CacheStatsAll() {
		inval += cs.Invalidations
	}
	if inval == 0 {
		t.Error("no cache was invalidated while measuring")
	}
}

// exactTableEntry picks a cache-covered single-key exact table of the
// deployed program and an entry it does not hold.
func exactTableEntry(t *testing.T, prog *p4ir.Program) (string, p4ir.Entry) {
	t.Helper()
	for _, name := range prog.NodeNames() {
		spec, ok := prog.Tables[name].CacheMeta()
		if !ok || spec.Prepopulated {
			continue
		}
		for _, covered := range spec.Covers {
			ct := prog.Tables[covered]
			if ct == nil || len(ct.Keys) != 1 || ct.Keys[0].Kind != p4ir.MatchExact || len(ct.Actions) == 0 {
				continue
			}
			return covered, p4ir.Entry{
				Match:  []p4ir.MatchValue{{Value: ct.Keys[0].FullMask()}},
				Action: ct.Actions[0].Name,
			}
		}
	}
	t.Fatal("no cache of the deployed plan covers a single-key exact table")
	return "", p4ir.Entry{}
}
