package nicsim

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/packet"
	"pipeleon/internal/profile"
	"pipeleon/internal/synth"
	"pipeleon/internal/trafficgen"
)

// TestBurstScalarEquivalenceProperty is the burst datapath's proof
// obligation, swept across 120 synthesized programs (30 under -short):
// every category, varying shapes, with the vendor cache and measurement
// noise toggled across seeds.
//
// It pins ProcessBurst to Process packet by packet: same submission order
// means the same virtual-clock order and the same cache evolution, so
// every per-packet Result (minus Path, which the burst path skips) and
// every final packet byte must match even for stateful programs.
func TestBurstScalarEquivalenceProperty(t *testing.T) {
	seeds := 120
	if testing.Short() {
		seeds = 30
	}
	for i := 0; i < seeds; i++ {
		seed := uint64(7000 + i*131)
		cat := synth.Category(i % 4)
		prog := synth.Program(synth.ProgramSpec{
			Pipelets: 3 + i%4, AvgLen: float64(2 + i%2), Category: cat, Seed: seed,
		})
		noise := 0.0
		if i%2 == 1 {
			noise = 0.05
		}
		mkNIC := func() (*NIC, *profile.Collector) {
			col := profile.NewCollector()
			nic, err := New(prog, Config{
				Params:      costmodel.BlueField2(),
				Collector:   col,
				Instrument:  true,
				Seed:        seed,
				NoiseStdDev: noise,
				VendorCache: i%3 == 0,
			})
			if err != nil {
				t.Fatal(err)
			}
			return nic, col
		}

		gen := trafficgen.New(seed, 0)
		gen.AddFlows(trafficgen.UniformFlows(seed+1, 64)...)
		if i%2 == 0 {
			gen.SetSkew(0.8)
		}
		pkts := gen.Batch(256)

		scalarNIC, scalarCol := mkNIC()
		burstNIC, burstCol := mkNIC()
		scalarPkts := make([]*packet.Packet, len(pkts))
		burstPkts := make([]*packet.Packet, len(pkts))
		for j, p := range pkts {
			scalarPkts[j] = p.Clone()
			burstPkts[j] = p.Clone()
		}
		scalarRes := make([]Result, len(pkts))
		for j, p := range scalarPkts {
			scalarRes[j] = scalarNIC.Process(p)
		}
		burstRes := make([]Result, len(pkts))
		burstNIC.ProcessBurst(burstPkts, burstRes)
		for j := range pkts {
			s := scalarRes[j]
			s.Path = nil // the burst path does not record Path
			if !reflect.DeepEqual(s, burstRes[j]) {
				t.Fatalf("seed %d pkt %d: scalar result %+v != burst %+v", seed, j, s, burstRes[j])
			}
			if !reflect.DeepEqual(scalarPkts[j], burstPkts[j]) {
				t.Fatalf("seed %d pkt %d: packets diverged after processing", seed, j)
			}
		}
		if sp, bp := scalarCol.Snapshot(), burstCol.Snapshot(); !reflect.DeepEqual(sp, bp) {
			t.Fatalf("seed %d: scalar/burst profile snapshots differ:\nscalar: %+v\nburst:  %+v", seed, sp, bp)
		}
		sProc, sDrop := tally(scalarRes)
		bProc, bDrop := tally(burstRes)
		if sProc != bProc || sDrop != bDrop {
			t.Fatalf("seed %d: counters (%d,%d) != (%d,%d)", seed, sProc, sDrop, bProc, bDrop)
		}
	}
}

// Concurrent Measure calls on one instrumented NIC share its collector:
// the same seeded batch measured by three callers at once accumulates to
// exactly three times the single-run profile (commutative atomic adds),
// which the optimizer relies on when it snapshots mid-traffic. The batch
// is long enough that each call's finish helper runs too.
func TestInstrumentedAccumulationIsExact(t *testing.T) {
	defer twoProcs()()
	prog := synth.Program(synth.ProgramSpec{Pipelets: 4, AvgLen: 3, Category: synth.Mixed, Seed: 91})
	mk := func() (*NIC, *profile.Collector) {
		col := profile.NewCollector()
		nic, err := New(prog, Config{Params: costmodel.BlueField2(), Collector: col, Instrument: true})
		if err != nil {
			t.Fatal(err)
		}
		return nic, col
	}
	gen := trafficgen.New(17, 0)
	gen.AddFlows(trafficgen.UniformFlows(18, 64)...)
	pkts := gen.Batch(finishMinPkts + 88)

	once, onceCol := mk()
	oProc, oDrop := measured(once.Measure(pkts))
	ref := onceCol.Snapshot()

	const runs = 3
	multi, multiCol := mk()
	var wg sync.WaitGroup
	ms := make([]Measurement, runs)
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ms[i] = multi.Measure(pkts)
		}()
	}
	wg.Wait()
	got := multiCol.Snapshot()

	for table, acts := range ref.ActionCounts {
		for act, c := range acts {
			if got.ActionCounts[table][act] != runs*c {
				t.Errorf("%s/%s: %d != %d*%d", table, act, got.ActionCounts[table][act], runs, c)
			}
		}
	}
	for cond, c := range ref.BranchCounts {
		g := got.BranchCounts[cond]
		if g[0] != runs*c[0] || g[1] != runs*c[1] {
			t.Errorf("branch %s: %v != %d*%v", cond, g, runs, c)
		}
	}
	var mProc, mDrop uint64
	for _, m := range ms {
		p, d := measured(m)
		mProc, mDrop = mProc+p, mDrop+d
	}
	if mProc != runs*oProc || mDrop != runs*oDrop {
		t.Errorf("counters (%d,%d) != %d*(%d,%d)", mProc, mDrop, runs, oProc, oDrop)
	}
	// Cardinalities are sets, not counts: replaying the same batch must
	// not inflate them.
	if got.FlowCardinality != ref.FlowCardinality {
		t.Errorf("flow cardinality %d != %d", got.FlowCardinality, ref.FlowCardinality)
	}
	for tbl, k := range ref.KeyCardinality {
		if got.KeyCardinality[tbl] != k {
			t.Errorf("key cardinality %s: %d != %d", tbl, got.KeyCardinality[tbl], k)
		}
	}
}

// tally counts the packets of a run and its drops from the results.
func tally(res []Result) (processed, dropped uint64) {
	for _, r := range res {
		processed++
		if r.Dropped {
			dropped++
		}
	}
	return processed, dropped
}

// measured counts the packets of a Measurement and its drops.
func measured(m Measurement) (processed, dropped uint64) {
	return uint64(m.Packets), uint64(math.Round(m.DropRate * float64(m.Packets)))
}
