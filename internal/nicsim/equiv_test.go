package nicsim

import (
	"reflect"
	"testing"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/packet"
	"pipeleon/internal/profile"
	"pipeleon/internal/synth"
	"pipeleon/internal/trafficgen"
)

// The acceptance bar for the lock-free fast path: a seeded batch measured
// serially and measured on 8 workers must produce bit-identical
// Measurement aggregates and bit-identical profile snapshots. This holds
// because (a) measurement noise is a pure function of (seed, flow,
// latency), not of processing order, (b) per-packet results land in
// per-index slots, and (c) with sampling=1 every profiling increment is a
// commutative atomic add and key/flow sets are order-independent unions.
// Caches (LRU state) and sampling wheels (every>1) are inherently
// order-dependent, so the guarantee is scoped to cache-free programs at
// full sampling — exactly the configuration the differential tests use.
func TestMeasureSerialParallelEquivalence(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		seed := uint64(7700 + trial*311)
		cat := synth.Category(trial % 4)
		prog := synth.Program(synth.ProgramSpec{Pipelets: 5 + trial%3, AvgLen: 3, Category: cat, Seed: seed})

		mkNIC := func() (*NIC, *profile.Collector) {
			col := profile.NewCollector() // records every packet (sampling=1)
			nic, err := New(prog, Config{
				Params:      costmodel.BlueField2(),
				Collector:   col,
				Instrument:  true,
				Seed:        seed,
				NoiseStdDev: 0.05,
			})
			if err != nil {
				t.Fatal(err)
			}
			return nic, col
		}

		gen := trafficgen.New(seed, 0)
		gen.AddFlows(trafficgen.UniformFlows(seed+1, 128)...)
		gen.SetSkew(0.9)
		pkts := gen.Batch(2000)

		serialNIC, serialCol := mkNIC()
		parallelNIC, parallelCol := mkNIC()
		serial := serialNIC.Measure(pkts)
		parallel := parallelNIC.MeasureParallel(pkts, 8)

		if serial != parallel {
			t.Errorf("trial %d: serial %+v != parallel %+v", trial, serial, parallel)
		}
		sp, pp := serialCol.Snapshot(), parallelCol.Snapshot()
		if !reflect.DeepEqual(sp, pp) {
			t.Errorf("trial %d: profile snapshots differ:\nserial:   %+v\nparallel: %+v", trial, sp, pp)
		}

		// Counters must agree too: same packets, same drops.
		sProc, sDrop := serialNIC.Counters()
		pProc, pDrop := parallelNIC.Counters()
		if sProc != pProc || sDrop != pDrop {
			t.Errorf("trial %d: counters (%d,%d) != (%d,%d)", trial, sProc, sDrop, pProc, pDrop)
		}
	}
}

// TestBurstScalarEquivalenceProperty is the burst datapath's proof
// obligation, swept across 120 synthesized programs (30 under -short):
// every category, varying shapes, with the vendor cache and measurement
// noise toggled across seeds.
//
// Part A pins ProcessBurst to Process packet by packet: same submission
// order means the same virtual-clock order and the same cache evolution,
// so every per-packet Result (minus Path, which the burst path skips) and
// every final packet byte must match even for stateful programs. Part B
// pins the index-steered MeasureParallel to serial Measure on cache-free
// configurations, where profiling commutativity and per-index latency
// slots make the aggregate bit-identical regardless of steering.
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
		vendor := i%3 == 0

		mkNIC := func(withVendor bool) (*NIC, *profile.Collector) {
			col := profile.NewCollector()
			nic, err := New(prog, Config{
				Params:      costmodel.BlueField2(),
				Collector:   col,
				Instrument:  true,
				Seed:        seed,
				NoiseStdDev: noise,
				VendorCache: withVendor,
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

		// Part A: scalar Process vs ProcessBurst, packet by packet.
		scalarNIC, scalarCol := mkNIC(vendor)
		burstNIC, burstCol := mkNIC(vendor)
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
		sProc, sDrop := scalarNIC.Counters()
		bProc, bDrop := burstNIC.Counters()
		if sProc != bProc || sDrop != bDrop {
			t.Fatalf("seed %d: counters (%d,%d) != (%d,%d)", seed, sProc, sDrop, bProc, bDrop)
		}

		// Part B: serial Measure vs steered MeasureParallel (cache-free:
		// LRU caches are order-dependent across workers by design).
		serialNIC, serialCol := mkNIC(false)
		parallelNIC, parallelCol := mkNIC(false)
		workers := 2 + i%7
		serial := serialNIC.Measure(pkts)
		parallel := parallelNIC.MeasureParallel(pkts, workers)
		if serial != parallel {
			t.Fatalf("seed %d: serial %+v != parallel(%d) %+v", seed, serial, workers, parallel)
		}
		if sp, pp := serialCol.Snapshot(), parallelCol.Snapshot(); !reflect.DeepEqual(sp, pp) {
			t.Fatalf("seed %d: measure profile snapshots differ", seed)
		}
	}
}

// MeasureParallel over a concurrently shared collector must also be clean
// when the same NIC is measured repeatedly: repeated seeded batches through
// one instrumented NIC accumulate to exactly numRuns times the single-run
// profile (commutative atomic adds), which the optimizer relies on when it
// snapshots mid-traffic.
func TestInstrumentedAccumulationIsExact(t *testing.T) {
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
	pkts := gen.Batch(600)

	once, onceCol := mk()
	once.Measure(pkts)
	ref := onceCol.Snapshot()

	const runs = 3
	multi, multiCol := mk()
	for i := 0; i < runs; i++ {
		multi.MeasureParallel(pkts, 4)
	}
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
