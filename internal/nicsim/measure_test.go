package nicsim

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/opt"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/profile"
	"pipeleon/internal/synth"
	"pipeleon/internal/trafficgen"
)

// Measure's two stages are pinned to the simplest thing that could compute
// a Measurement: a Process call per cloned packet, in order, aggregated
// here. The walk is the same datapath in the same order; the finish —
// noise, key and flow set inserts — runs on a helper beside it, so the
// oracle catches any of it that depends on when or where it runs. The
// configurations are stateful (flow caches of searched plans, the vendor
// cache, cache-fill costs on the virtual clock), and the NIC pair is
// measured batch after batch, so state carried from one call to the next
// counts too.

// measureBatches are the batch sizes the oracle walks one after another:
// empty, one packet, around a burst, one chunk and one chunk + 1, around
// the shortest batch the helper takes part in, and one with a ragged tail.
var measureBatches = []int{
	0, 1, BurstSize - 1, BurstSize, BurstSize + 1, finishChunkPkts, finishChunkPkts + 1,
	finishMinPkts - 1, finishMinPkts, finishMinPkts + finishChunkPkts + 17,
}

// processMeasure is the oracle: Measure's aggregates computed from
// per-packet Process calls on clones of pkts.
func processMeasure(n *NIC, pkts []*packet.Packet) Measurement {
	if len(pkts) == 0 {
		return Measurement{}
	}
	lat := make([]float64, len(pkts))
	var drops, migrations, vhits, counters, wireBytes int
	for i, p := range pkts {
		r := n.Process(p.Clone())
		lat[i] = r.LatencyNs
		if r.Dropped {
			drops++
		}
		if r.VendorCacheHit {
			vhits++
		}
		migrations += r.Migrations
		counters += r.CounterUpdates
		wl := p.WireLen
		if wl == 0 {
			wl = 512
		}
		wireBytes += wl
	}
	var sum float64
	for _, l := range lat {
		sum += l
	}
	k := float64(len(pkts))
	m := Measurement{
		Packets:            len(pkts),
		MeanLatencyNs:      sum / k,
		DropRate:           float64(drops) / k,
		MeanMigrations:     float64(migrations) / k,
		VendorHitRate:      float64(vhits) / k,
		MeanCounterUpdates: float64(counters) / k,
	}
	sort.Float64s(lat)
	m.P99LatencyNs = lat[int(0.99*float64(len(lat)-1))]
	m.ThroughputGbps = n.Params().ThroughputGbps(m.MeanLatencyNs, wireBytes/len(pkts))
	return m
}

// sameMeasurement reports whether every field of a and b is bit-equal.
func sameMeasurement(a, b Measurement) bool {
	bits := func(m Measurement) [8]uint64 {
		return [8]uint64{
			uint64(m.Packets), math.Float64bits(m.MeanLatencyNs), math.Float64bits(m.P99LatencyNs),
			math.Float64bits(m.ThroughputGbps), math.Float64bits(m.DropRate), math.Float64bits(m.MeanMigrations),
			math.Float64bits(m.VendorHitRate), math.Float64bits(m.MeanCounterUpdates),
		}
	}
	return bits(a) == bits(b)
}

// twoProcs makes sure the helper has a processor to run on, whatever the
// machine, and returns the restore.
func twoProcs() func() {
	prev := runtime.GOMAXPROCS(0)
	runtime.GOMAXPROCS(max(prev, 2))
	return func() { runtime.GOMAXPROCS(prev) }
}

// measureMatchesProcess builds two NICs alike — mk returns one with its
// collector — and walks the batch sizes on both: Measure on one, the
// Process oracle on the other. After every batch the Measurement, the
// profile snapshot and the packet counters must agree exactly.
func measureMatchesProcess(t *testing.T, name string, mk func() (*NIC, *profile.Collector), pkts []*packet.Packet) {
	t.Helper()
	got, gotCol := mk()
	want, wantCol := mk()
	at := 0
	for _, size := range measureBatches {
		batch := pkts[at : at+size]
		at += size
		gm, wm := got.Measure(batch), processMeasure(want, batch)
		if !sameMeasurement(gm, wm) {
			t.Fatalf("%s, batch of %d: Measure %+v, per-packet Process %+v", name, size, gm, wm)
		}
		if gp, wp := gotCol.Snapshot(), wantCol.Snapshot(); !reflect.DeepEqual(gp, wp) {
			t.Fatalf("%s, batch of %d: snapshots differ:\nMeasure: %+v\nProcess: %+v", name, size, gp, wp)
		}
		gProc, gDrop := got.Counters()
		wProc, wDrop := want.Counters()
		if gProc != wProc || gDrop != wDrop {
			t.Fatalf("%s, batch of %d: counters (%d,%d), per-packet Process (%d,%d)", name, size, gProc, gDrop, wProc, wDrop)
		}
	}
}

func measureBatchTotal() int {
	total := 0
	for _, s := range measureBatches {
		total += s
	}
	return total
}

// TestMeasureMatchesProcess sweeps the optimizer's 120-seed corpus with the
// searched plan swapped in wherever the search finds one (most plans carry
// flow caches), the vendor cache on for a third of the seeds, noise,
// instrumentation and a cache-fill cost on every seed.
func TestMeasureMatchesProcess(t *testing.T) {
	defer twoProcs()()
	cached := 0
	for i := 0; i < swapCorpus; i++ {
		if testing.Short() && i%4 != 0 || raceEnabled && i%6 != 0 {
			continue
		}
		orig, spec, pm := swapCase(i)
		plan := searched(t, orig, pm, spec)
		for _, tbl := range plan.Tables {
			if spec, ok := tbl.CacheMeta(); ok && !spec.Prepopulated {
				cached++
				break
			}
		}
		mk := func() (*NIC, *profile.Collector) {
			col := profile.NewCollector()
			nic, err := New(orig.Clone(), Config{
				Params: pm, Collector: col, Instrument: true,
				Seed: uint64(i) + 11, NoiseStdDev: 0.05, CacheFillCostNs: 500,
				VendorCache: i%3 == 0, VendorCacheBudget: 64,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := nic.Swap(plan); err != nil {
				t.Fatal(err)
			}
			return nic, col
		}
		gen := trafficgen.New(uint64(i)+5, 0)
		gen.AddFlows(trafficgen.UniformFlows(uint64(i)+6, 96)...)
		gen.SetSkew(0.8)
		measureMatchesProcess(t, fmt.Sprintf("case %d", i), mk, gen.Batch(measureBatchTotal()))
	}
	if cached == 0 {
		t.Fatal("vacuous: no searched plan of the corpus has a flow cache")
	}
	t.Logf("%d plans with a runtime flow cache", cached)
}

// TestMeasureMatchesProcessSynth110 runs the oracle on the root package's
// synth110Deployed, rebuilt here: the 110-table program measured for one
// window, the plan searched from that profile deployed, the collector
// reset — every per-packet store on the path.
func TestMeasureMatchesProcessSynth110(t *testing.T) {
	defer twoProcs()()
	prog := synth.Program(synth.ProgramSpec{Pipelets: 40, AvgLen: 3, Category: synth.Mixed, Seed: 7})
	gen := trafficgen.New(4, trafficgen.DefaultPacketBytes)
	gen.AddFlows(trafficgen.UniformFlows(8, 128)...)
	gen.SetSkew(0.9)
	pkts := gen.Batch(4096)
	var plan *p4ir.Program
	mk := func() (*NIC, *profile.Collector) {
		col := profile.NewCollector()
		nic, err := New(prog.Clone(), Config{
			Params: costmodel.BlueField2(), Collector: col, Instrument: true,
			Seed: 5, NoiseStdDev: 0.01, CacheFillCostNs: 500,
		})
		if err != nil {
			t.Fatal(err)
		}
		nic.Measure(pkts)
		if plan == nil {
			s, err := opt.NewSession(prog, costmodel.BlueField2(), opt.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			_, rw, err := s.SearchAndApply(col.Snapshot())
			if err != nil || rw == nil {
				t.Fatalf("the search found no plan for the 110-table program (%v)", err)
			}
			plan = rw.Program
		}
		if err := nic.Swap(plan); err != nil {
			t.Fatal(err)
		}
		if len(nic.CacheStatsAll()) == 0 {
			t.Fatal("the deployed plan has no flow cache")
		}
		col.Reset()
		return nic, col
	}
	measureMatchesProcess(t, "synth110", mk, pkts)
}

// TestMeasureLeavesNoGoroutine: the finish stage's helper is joined inside
// every Measure, and what it recycles stays bounded. Mixed batch sizes
// (empty, below and above the helper's minimum), an instrumented noisy NIC with a
// vendor cache beside an un-instrumented noise-free one, with a Swap and a
// Collector.Reset between calls.
func TestMeasureLeavesNoGoroutine(t *testing.T) {
	defer twoProcs()()
	calls := 10_000
	if testing.Short() || raceEnabled {
		calls = 1_000
	}
	prog := synth.Program(synth.ProgramSpec{Pipelets: 4, AvgLen: 2, Category: synth.Mixed, Seed: 31})
	plan := searched(t, prog, costmodel.BlueField2(), synth.ProfileSpec{Seed: 32, Category: synth.Mixed})
	col := profile.NewCollector()
	noisy, err := New(prog, Config{
		Params: costmodel.BlueField2(), Collector: col, Instrument: true,
		Seed: 3, NoiseStdDev: 0.05, VendorCache: true, VendorCacheBudget: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := New(prog, Config{Params: costmodel.BlueField2()})
	if err != nil {
		t.Fatal(err)
	}
	gen := trafficgen.New(33, 0)
	gen.AddFlows(trafficgen.UniformFlows(34, 512)...)
	pkts := gen.Batch(finishMinPkts + 2*finishChunkPkts + 5)
	sizes := []int{0, 1, finishChunkPkts + 1, len(pkts), BurstSize + 3, finishMinPkts}

	heap := func() float64 {
		// Two collections: the first moves what sync.Pools hold to their
		// victim caches, the second frees it, so pooled buffers (dropped at
		// random under -race) do not count.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	base := runtime.NumGoroutine()
	var samples []float64 // live heap at every tenth of the calls
	for i := 0; i < calls; i++ {
		nic := noisy
		if i%5 == 4 {
			nic = plain
		}
		size := sizes[i%len(sizes)]
		if m := nic.Measure(pkts[:size]); m.Packets != size {
			t.Fatalf("call %d: measured %d packets, want %d", i, m.Packets, size)
		}
		// A joined goroutine may still be on its way out when Measure
		// returns; one that leaked never leaves.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("call %d (batch of %d): %d goroutines, %d before the first call", i, size, runtime.NumGoroutine(), base)
			}
		}
		// Every hundred calls: to the plan and back, and a new profiling
		// window; so the heap is sampled in the same state each time.
		switch i % 100 {
		case 24, 74:
			p := plan
			if i%100 == 74 {
				p = prog
			}
			if err := noisy.Swap(p); err != nil {
				t.Fatal(err)
			}
		case 99:
			col.Reset()
		}
		if (i+1)%(calls/10) == 0 {
			samples = append(samples, heap())
		}
	}
	// The first tenth fills caches and pools; from then on the live heap
	// must stay flat: a least-squares slope under 64 bytes a call, where a
	// leaked helper or finisher is kilobytes.
	xs := samples[1:]
	var mx, my float64
	for j, y := range xs {
		mx += float64(j)
		my += y
	}
	mx /= float64(len(xs))
	my /= float64(len(xs))
	var sxy, sxx float64
	for j, y := range xs {
		sxy += (float64(j) - mx) * (y - my)
		sxx += (float64(j) - mx) * (float64(j) - mx)
	}
	perCall := sxy / sxx / float64(calls/10)
	if perCall > 64 {
		t.Errorf("live heap grows %.1f bytes per Measure (samples %v)", perCall, samples)
	}
	t.Logf("%d calls, live heap slope %.2f bytes a call", calls, perCall)
}
