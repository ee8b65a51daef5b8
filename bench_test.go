package pipeleon

// The bench harness regenerates every table and figure of the paper's
// evaluation (DESIGN.md's experiment index): each BenchmarkFig* runs the
// corresponding experiment from internal/experiments in quick mode and
// reports its headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. For the full-scale numbers recorded in
// EXPERIMENTS.md use `go run ./cmd/experiments -all`.
//
// Alongside the figure benches, Ablation* benches quantify the design
// choices DESIGN.md calls out, and micro-benches cover the hot paths
// (emulator processing, search, IR round trip).

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/experiments"
	"pipeleon/internal/nicsim"
	"pipeleon/internal/opt"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/profile"
	"pipeleon/internal/synth"
	"pipeleon/internal/trafficgen"
)

// benchFig runs one figure experiment per iteration and reports a metric
// extracted from its result.
func benchFig(b *testing.B, id string, metric func(*experiments.Result) (string, float64)) {
	b.Helper()
	r := experiments.Find(id)
	if r == nil {
		b.Fatalf("unknown figure %q", id)
	}
	var last *experiments.Result
	for i := 0; i < b.N; i++ {
		last = r.Run(experiments.RunOpts{Quick: true, Seed: 42})
	}
	if last != nil && metric != nil {
		name, v := metric(last)
		b.ReportMetric(v, name)
	}
}

// lastY returns the final Y value of the named series.
func lastY(res *experiments.Result, series string) float64 {
	for _, s := range res.Series {
		if s.Name == series && len(s.Y) > 0 {
			return s.Y[len(s.Y)-1]
		}
	}
	return 0
}

// meanY averages a series.
func meanY(res *experiments.Result, series string) float64 {
	for _, s := range res.Series {
		if s.Name == series && len(s.Y) > 0 {
			var sum float64
			for _, y := range s.Y {
				sum += y
			}
			return sum / float64(len(s.Y))
		}
	}
	return 0
}

func BenchmarkFig2DynamicVsStaticACL(b *testing.B) {
	benchFig(b, "fig2", func(r *experiments.Result) (string, float64) {
		return "dyn-vs-static-Gbps", meanY(r, "dynamic-acl-order") - meanY(r, "static-acl-order")
	})
}

func BenchmarkFig5aProgramLength(b *testing.B) {
	benchFig(b, "fig5a", func(r *experiments.Result) (string, float64) {
		return "model-ratio", meanY(r, "cost-model")
	})
}

func BenchmarkFig5bActionPrimitives(b *testing.B) {
	benchFig(b, "fig5b", func(r *experiments.Result) (string, float64) {
		return "model-ratio", meanY(r, "cost-model")
	})
}

func BenchmarkFig5cLPM(b *testing.B) {
	benchFig(b, "fig5c", func(r *experiments.Result) (string, float64) {
		return "model-ratio", meanY(r, "cost-model")
	})
}

func BenchmarkFig5dTernary(b *testing.B) {
	benchFig(b, "fig5d", func(r *experiments.Result) (string, float64) {
		return "model-ratio", meanY(r, "cost-model")
	})
}

func BenchmarkFig9aReorderBF2(b *testing.B) {
	benchFig(b, "fig9a", func(r *experiments.Result) (string, float64) {
		// Front-position throughput at 75% drop (the headline win).
		return "front-Gbps", lastY(r, "drop-75%")
	})
}

func BenchmarkFig9bReorderAgilio(b *testing.B) {
	benchFig(b, "fig9b", func(r *experiments.Result) (string, float64) {
		return "front-Gbps", lastY(r, "drop-75%")
	})
}

func BenchmarkFig9cCaching(b *testing.B) {
	benchFig(b, "fig9c", func(r *experiments.Result) (string, float64) {
		for _, s := range r.Series {
			if s.Name == "bluefield2" && len(s.Y) >= 4 {
				return "best-over-nocache-x", s.Y[3] / s.Y[0]
			}
		}
		return "best-over-nocache-x", 0
	})
}

func BenchmarkFig9dMerging(b *testing.B) {
	benchFig(b, "fig9d", func(r *experiments.Result) (string, float64) {
		for _, s := range r.Series {
			if s.Name == "bluefield2" && len(s.Y) >= 4 {
				return "merge4-over-none-x", s.Y[3] / s.Y[0]
			}
		}
		return "merge4-over-none-x", 0
	})
}

func BenchmarkFig10Synthesized(b *testing.B) {
	benchFig(b, "fig10", func(r *experiments.Result) (string, float64) {
		var sum float64
		var n int
		for _, s := range r.Series {
			for _, y := range s.Y {
				sum += y
				n++
			}
		}
		return "mean-latency-reduction-pct", sum / float64(n)
	})
}

func BenchmarkFig11aLoadBalancer(b *testing.B) {
	benchFig(b, "fig11a", func(r *experiments.Result) (string, float64) {
		return "pipeleon-mean-Gbps", meanY(r, "pipeleon")
	})
}

func BenchmarkFig11bDashRouting(b *testing.B) {
	benchFig(b, "fig11b", func(r *experiments.Result) (string, float64) {
		return "pipeleon-mean-Gbps", meanY(r, "pipeleon")
	})
}

func BenchmarkFig11cNFComposition(b *testing.B) {
	benchFig(b, "fig11c", func(r *experiments.Result) (string, float64) {
		base, dyn := meanY(r, "baseline"), meanY(r, "pipeleon")
		if base == 0 {
			return "latency-reduction-pct", 0
		}
		return "latency-reduction-pct", (1 - dyn/base) * 100
	})
}

func BenchmarkFig12aProfilingLatency(b *testing.B) {
	benchFig(b, "fig12a", func(r *experiments.Result) (string, float64) {
		return "simple-overhead-pct", lastY(r, "simple-action")
	})
}

func BenchmarkFig12bProfilingThroughputAgilio(b *testing.B) {
	benchFig(b, "fig12b", func(r *experiments.Result) (string, float64) {
		return "sampled-overhead-pct", lastY(r, "simple-action-sampling-1/1024")
	})
}

func BenchmarkFig12cProfilingThroughputBF2(b *testing.B) {
	benchFig(b, "fig12c", func(r *experiments.Result) (string, float64) {
		return "max-overhead-pct", lastY(r, "simple-action")
	})
}

func BenchmarkFig13OptimizationSpeed(b *testing.B) {
	benchFig(b, "fig13", func(r *experiments.Result) (string, float64) {
		// Median top-20% time of the first group.
		for _, s := range r.Series {
			if s.Name == "PN12-PL2-k20%" {
				for i, x := range s.X {
					if x == 50 {
						return "median-k20-ms", s.Y[i]
					}
				}
			}
		}
		return "median-k20-ms", 0
	})
}

func BenchmarkFig14TopKEffectiveness(b *testing.B) {
	benchFig(b, "fig14", func(r *experiments.Result) (string, float64) {
		return "k20-gain-ratio", meanY(r, "entropy-p50")
	})
}

func BenchmarkFig15GroupOptimization(b *testing.B) {
	benchFig(b, "fig15", func(r *experiments.Result) (string, float64) {
		return "group-delta-pct", meanY(r, "with-groups") - meanY(r, "without-groups")
	})
}

func BenchmarkFig17aTableCopyLatency(b *testing.B) {
	benchFig(b, "fig17a", func(r *experiments.Result) (string, float64) {
		for _, s := range r.Series {
			if s.Name == "migration-400ns" && len(s.Y) >= 5 {
				return "copy4-saving-ns", s.Y[0] - s.Y[4]
			}
		}
		return "copy4-saving-ns", 0
	})
}

func BenchmarkFig17bTableCopyRatio(b *testing.B) {
	benchFig(b, "fig17b", func(r *experiments.Result) (string, float64) {
		for _, s := range r.Series {
			if s.Name == "software-70%" && len(s.Y) >= 5 {
				return "copy4-saving-ns", s.Y[0] - s.Y[4]
			}
		}
		return "copy4-saving-ns", 0
	})
}

func BenchmarkFig20PlacementCrossover(b *testing.B) {
	benchFig(b, "fig20", func(r *experiments.Result) (string, float64) {
		// Count the grid points the off-path tier wins — the headline of
		// the crossover map.
		var wins float64
		for _, s := range r.Series {
			if len(s.Name) > 8 && s.Name[:8] == "updates-" {
				for _, y := range s.Y {
					if y == 2 {
						wins++
					}
				}
			}
		}
		return "offpath-wins", wins
	})
}

func BenchmarkFig18EntropyProfiles(b *testing.B) {
	benchFig(b, "fig18", nil)
}

func BenchmarkFig19ESearchByEntropy(b *testing.B) {
	benchFig(b, "fig19", func(r *experiments.Result) (string, float64) {
		return "p50-improvement-x", meanY(r, "entropy-p10")
	})
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md "key design decisions").

// ablationProgram is a shared mid-size search workload.
func ablationSearchInput() (*p4ir.Program, *opt.Config, costmodel.Params, *synth.ProgramSpec) {
	spec := &synth.ProgramSpec{Pipelets: 12, AvgLen: 2.5, Category: synth.Mixed, Seed: 4242}
	cfg := opt.DefaultConfig()
	cfg.TopKFrac = 1
	cfg.CacheInsertLimit = 0
	return synth.Program(*spec), &cfg, costmodel.EmulatedNIC(), spec
}

// searchFresh runs one round on a session of its own: a session is bound
// to one Config, and the ablations below compare configurations.
func searchFresh(tb testing.TB, prog *p4ir.Program, prof *profile.Profile, pm costmodel.Params, cfg opt.Config) *opt.SearchResult {
	tb.Helper()
	s, err := opt.NewSession(prog, pm, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	sr, err := s.Search(prof)
	if err != nil {
		tb.Fatal(err)
	}
	return sr
}

// BenchmarkAblationKnapsackResolution sweeps the knapsack discretization:
// finer grids cost more time for marginally better plans.
func BenchmarkAblationKnapsackResolution(b *testing.B) {
	prog, cfgBase, pm, _ := ablationSearchInput()
	prof := synth.SynthesizeProfile(prog, synth.ProfileSpec{Seed: 7, Category: synth.Mixed})
	for _, buckets := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("buckets=%d", buckets), func(b *testing.B) {
			cfg := *cfgBase
			cfg.MemBuckets, cfg.UpdBuckets = buckets, buckets/2
			cfg.MemoryBudget = 1 << 20
			cfg.UpdateBudget = 10000
			cfg.CacheInsertLimit = 1000
			var gain float64
			for i := 0; i < b.N; i++ {
				sr := searchFresh(b, prog, prof, pm, cfg)
				gain = sr.Gain
			}
			b.ReportMetric(gain, "gain-ns")
		})
	}
}

// BenchmarkAblationMergeCap sweeps the merge cap (paper default 2).
func BenchmarkAblationMergeCap(b *testing.B) {
	prog := synth.Program(synth.ProgramSpec{Pipelets: 8, AvgLen: 4, Category: synth.SmallStatic, Seed: 99})
	prof := synth.SynthesizeProfile(prog, synth.ProfileSpec{Seed: 100, Category: synth.SmallStatic})
	pm := costmodel.EmulatedNIC()
	for _, cap := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("cap=%d", cap), func(b *testing.B) {
			cfg := opt.DefaultConfig()
			cfg.TopKFrac = 1
			cfg.MergeCap = cap
			cfg.EnableCache = false
			cfg.EnableReorder = false
			cfg.CacheInsertLimit = 0
			var gain float64
			var mem int
			for i := 0; i < b.N; i++ {
				sr := searchFresh(b, prog, prof, pm, cfg)
				gain, mem = sr.Gain, 0
				for _, o := range sr.Plan {
					mem += o.MemCost
				}
			}
			b.ReportMetric(gain, "gain-ns")
			b.ReportMetric(float64(mem), "mem-bytes")
		})
	}
}

// BenchmarkAblationTechniques isolates each optimization technique.
func BenchmarkAblationTechniques(b *testing.B) {
	prog, cfgBase, pm, _ := ablationSearchInput()
	prof := synth.SynthesizeProfile(prog, synth.ProfileSpec{Seed: 7, Category: synth.Mixed})
	modes := []struct {
		name                   string
		reorder, cache, merge_ bool
	}{
		{"reorder-only", true, false, false},
		{"cache-only", false, true, false},
		{"merge-only", false, false, true},
		{"all", true, true, true},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			cfg := *cfgBase
			cfg.EnableReorder, cfg.EnableCache, cfg.EnableMerge = m.reorder, m.cache, m.merge_
			var gain float64
			for i := 0; i < b.N; i++ {
				sr := searchFresh(b, prog, prof, pm, cfg)
				gain = sr.Gain
			}
			b.ReportMetric(gain, "gain-ns")
		})
	}
}

// BenchmarkAblationMemoryTiers sweeps the SRAM capacity of the §6
// hierarchical-memory extension: more fast memory buys more promoted
// tables and lower modeled latency.
func BenchmarkAblationMemoryTiers(b *testing.B) {
	prog := synth.Program(synth.ProgramSpec{Pipelets: 10, AvgLen: 3, Category: synth.HighLocality, Seed: 321})
	prof := synth.SynthesizeProfile(prog, synth.ProfileSpec{Seed: 322, Category: synth.HighLocality})
	for _, budget := range []int{0, 8 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("sram-%dKiB", budget>>10), func(b *testing.B) {
			pm := costmodel.AgilioCX()
			pm.SRAMFactor = 0.4
			pm.SRAMBytes = budget
			var lat float64
			for i := 0; i < b.N; i++ {
				plan := opt.PlanMemoryTiers(prog, prof, pm)
				tiered := opt.ApplyMemoryTiers(prog, plan)
				lat = costmodel.ExpectedLatency(tiered, prof, pm)
			}
			b.ReportMetric(lat, "model-latency-ns")
		})
	}
}

// ---------------------------------------------------------------------
// Hot-path micro-benches.

// BenchmarkEmulatorProcess measures raw per-packet emulation cost on a
// 12-table program (wall time per Process call, not emulated latency).
func BenchmarkEmulatorProcess(b *testing.B) {
	prog := synth.Program(synth.ProgramSpec{Pipelets: 6, AvgLen: 2, Category: synth.Mixed, Seed: 3})
	nic, err := nicsim.New(prog, nicsim.Config{Params: costmodel.BlueField2()})
	if err != nil {
		b.Fatal(err)
	}
	gen := trafficgen.New(4, 0)
	gen.AddFlows(trafficgen.UniformFlows(5, 256)...)
	pkts := gen.Batch(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nic.Process(pkts[i%len(pkts)].Clone())
	}
}

// BenchmarkEmulatorProcessBurst measures the amortized per-packet cost of
// the burst datapath (ProcessBurst): one plan load and one profiling
// flush per 32 packets, a reused scratch context, and allocation-free
// clones into a fixed arena. ns/op here is per packet, directly
// comparable to BenchmarkEmulatorProcess.
func BenchmarkEmulatorProcessBurst(b *testing.B) {
	prog := synth.Program(synth.ProgramSpec{Pipelets: 6, AvgLen: 2, Category: synth.Mixed, Seed: 3})
	nic, err := nicsim.New(prog, nicsim.Config{Params: costmodel.BlueField2()})
	if err != nil {
		b.Fatal(err)
	}
	gen := trafficgen.New(4, 0)
	gen.AddFlows(trafficgen.UniformFlows(5, 256)...)
	pkts := gen.Batch(1024)
	var scratch [nicsim.BurstSize]packet.Packet
	var burst [nicsim.BurstSize]*packet.Packet
	var results [nicsim.BurstSize]nicsim.Result
	for i := range burst {
		burst[i] = &scratch[i]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i += nicsim.BurstSize {
		n := nicsim.BurstSize
		if rem := b.N - i; rem < n {
			n = rem
		}
		for j := 0; j < n; j++ {
			pkts[(i+j)%len(pkts)].CloneInto(burst[j])
		}
		nic.ProcessBurst(burst[:n], results[:n])
	}
}

// BenchmarkEmulatorProcessInstrumented includes counter collection.
func BenchmarkEmulatorProcessInstrumented(b *testing.B) {
	prog := synth.Program(synth.ProgramSpec{Pipelets: 6, AvgLen: 2, Category: synth.Mixed, Seed: 3})
	col := NewCollector()
	nic, err := nicsim.New(prog, nicsim.Config{
		Params: costmodel.BlueField2(), Collector: col, Instrument: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	gen := trafficgen.New(4, 0)
	gen.AddFlows(trafficgen.UniformFlows(5, 256)...)
	pkts := gen.Batch(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nic.Process(pkts[i%len(pkts)].Clone())
	}
}

// BenchmarkEmulatorProcessBurstSynth110Instrumented is the burst datapath
// with nothing left out: the 110-table program of the end-to-end
// benchmark's synth-shift workload, instrumented into a bound collector,
// with the searched cache plan deployed — packet metadata past the inline
// slots, distinct-key sets and flow caches are all on the path, as they
// are under core.Runtime. ns/op is per packet.
func BenchmarkEmulatorProcessBurstSynth110Instrumented(b *testing.B) {
	nic, _, pkts := synth110Deployed(b)
	a := newBurstArena()
	for lo := 0; lo < len(pkts); lo += nicsim.BurstSize {
		a.run(nic, pkts, lo)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += nicsim.BurstSize {
		a.run(nic, pkts, i)
	}
}

// BenchmarkMeasureSynth110Instrumented is one Measure of the 4 096-packet
// batch on the 110-table program with its searched cache plan, into a
// bound collector, with noise. ns/pkt is per packet, allocs/op per
// Measure. The gomaxprocs rows measure the same batch again and again, so
// after the first call every packet replays from the trace memo: they
// time the replay. The gomaxprocs=1 row sets GOMAXPROCS to one for its
// duration (and restores it), so a one-core regression of Measure shows
// beside the default row. The fresh row draws a new window of the same
// 128 flows for every Measure and resets the collector before it, as
// synth-shift's windows come: a flow's first sampled packet of a window
// notes its keys from the record, the rest replay. The rotating row draws
// each batch from synth-shift's four traffic mixes in turn, two batches a
// mix, and resets the collector before every batch: the ~900 flows of the
// four mixes are the working set a memo must hold for a window to replay.
func BenchmarkMeasureSynth110Instrumented(b *testing.B) {
	nic, col, pkts := synth110Deployed(b)
	b.Run("fresh", func(b *testing.B) {
		gen := trafficgen.New(6, trafficgen.DefaultPacketBytes)
		gen.AddFlows(trafficgen.UniformFlows(8, 128)...)
		gen.SetSkew(0.9)
		benchMeasureFresh(b, nic, col, []*trafficgen.Generator{gen}, 1, len(pkts), 1)
	})
	for _, procs := range []int{0, 1} {
		name := "gomaxprocs=default"
		if procs > 0 {
			name = fmt.Sprintf("gomaxprocs=%d", procs)
		}
		b.Run(name, func(b *testing.B) {
			if procs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			}
			nic.Measure(pkts) // warm: caches filled, buffers sized
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nic.Measure(pkts)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pkts)), "ns/pkt")
		})
	}
	b.Run("rotating", func(b *testing.B) {
		benchMeasureFresh(b, nic, col, synthShiftMixes(), 2, len(pkts), 1)
	})
}

// synthShiftMixes are the four traffic mixes synth-shift rotates through:
// the flow populations and skews of bench/workloads.go, each drawn by a
// generator of its own.
func synthShiftMixes() []*trafficgen.Generator {
	const seed = 7
	mix := func(stream uint64, skew float64, flows []trafficgen.Flow) *trafficgen.Generator {
		g := trafficgen.New(seed*8+stream, trafficgen.DefaultPacketBytes)
		g.AddFlows(flows...)
		g.SetSkew(skew)
		return g
	}
	return []*trafficgen.Generator{
		mix(0, 0.9, trafficgen.UniformFlows(seed+1, 128)),
		mix(1, 0.9, trafficgen.DropTargetedFlows(seed+2, 128, "tcp.dport", 23, 0.6)),
		mix(2, 0.5, trafficgen.CrossProductFlows(seed+3, 512, map[string]int{
			"ipv4.srcAddr": 4096, "ipv4.dstAddr": 4096, "tcp.sport": 1024, "tcp.dport": 512,
			"ipv4.tos": 64, "ipv4.ttl": 64,
		})),
		mix(3, 0.2, trafficgen.UniformFlows(seed+4, 128)),
	}
}

// BenchmarkMeasureDash is one Measure of 8 192 packets on testdata/dash.p4
// with the entries the end-to-end benchmark's dash workloads bake in —
// ternary ACLs over four masks, LPM routing over three prefix lengths, a
// two-word conntrack — instrumented into a bound collector, with noise:
// the multi-group and multi-word lookups the 110-table rows barely have.
// ns/pkt is per packet, allocs/op per Measure. The repeat row measures one
// batch again and again, which the trace memo replays as far as it holds
// the batch's flows; the fresh row draws a new batch of the 20 000 Zipf
// flows for every Measure and resets the collector every eight, as the
// dash workloads' windows of eight Measure calls come.
func BenchmarkMeasureDash(b *testing.B) {
	benchMeasureDash(b, dashProgram(b))
}

// BenchmarkMeasureDashCached is BenchmarkMeasureDash on the layout the dash
// workloads deploy: a runtime flow cache in front of each of acl_level1,
// acl_level2 and routing, at the search's default budget (1 024 entries)
// and insert limit (5 000/s), so the cache lock, hits, misses, fills and
// rejected fills are on the path.
func BenchmarkMeasureDashCached(b *testing.B) {
	prog := dashProgram(b)
	cfg := opt.DefaultConfig()
	for _, t := range []string{"acl_level1", "acl_level2", "routing"} {
		cacheInFront(prog, t, cfg.CacheBudgetEntries, cfg.CacheInsertLimit)
	}
	benchMeasureDash(b, prog)
}

// dashProgram is testdata/dash.p4 with the dash workloads' entries baked in.
func dashProgram(tb testing.TB) *p4ir.Program {
	prog, err := LoadProgram("testdata/dash.p4")
	if err != nil {
		tb.Fatal(err)
	}
	flows := dashFlows()
	bake := func(table string, e p4ir.Entry) {
		t := prog.Tables[table]
		t.Entries = append(t.Entries, e)
	}
	for _, f := range flows[:2000] {
		bake("conntrack", p4ir.Entry{Match: []p4ir.MatchValue{{Value: uint64(f.Src)}, {Value: uint64(f.SPort)}}, Action: "track"})
	}
	masks := []uint64{0xffffffff, 0xffffff00, 0xfffff000, 0xffff0000}
	for i := 0; i < 512; i++ {
		m := masks[i%len(masks)]
		action := "permit"
		if i%8 == 0 {
			action = "deny"
		}
		prio := 10 * (len(masks) - i%len(masks))
		f := flows[(i*37)%len(flows)]
		bake("acl_level1", p4ir.Entry{Match: []p4ir.MatchValue{{Value: uint64(f.Src) & m, Mask: m}}, Action: action, Priority: prio})
		bake("acl_level2", p4ir.Entry{Match: []p4ir.MatchValue{{Value: uint64(f.Dst) & m, Mask: m}}, Action: action, Priority: prio})
	}
	for i, plens := 0, []int{24, 20, 16}; i < 256; i++ {
		plen := plens[i%len(plens)]
		bake("routing", p4ir.Entry{
			Match:  []p4ir.MatchValue{{Value: uint64(flows[(i*53)%len(flows)].Dst) &^ (1<<(32-plen) - 1), PrefixLen: plen}},
			Action: "fwd", Args: []string{fmt.Sprint(2 + i%6)},
		})
	}
	return prog
}

func dashFlows() []trafficgen.Flow { return trafficgen.UniformFlows(5, 20000) }

// cacheInFront puts a runtime flow cache over table t in front of it, laid
// out as the search lays out a one-table cache: every edge into t enters
// the cache, a hit skips to t's successor, a miss walks t.
func cacheInFront(prog *p4ir.Program, t string, budget int, limit float64) {
	tbl := prog.Tables[t]
	name := p4ir.GeneratedName(p4ir.KindCache, []string{t})
	to := func(next *string) {
		if *next == t {
			*next = name
		}
	}
	to(&prog.Root)
	for _, other := range prog.Tables {
		to(&other.BaseNext)
		for a, next := range other.ActionNext {
			to(&next)
			other.ActionNext[a] = next
		}
	}
	for _, c := range prog.Conds {
		to(&c.TrueNext)
		to(&c.FalseNext)
	}
	keys := slices.Clone(tbl.Keys)
	for i := range keys {
		keys[i].Kind = p4ir.MatchExact
	}
	ct := &p4ir.Table{
		Name: name, Keys: keys,
		Actions:       []*p4ir.Action{{Name: "cache_hit"}, {Name: "cache_miss"}},
		DefaultAction: "cache_miss",
		ActionNext:    map[string]string{"cache_hit": tbl.BaseNext, "cache_miss": t},
		MaxEntries:    budget,
	}
	ct.SetCacheMeta(p4ir.CacheSpec{
		Table: name, Kind: p4ir.KindCache, Covers: []string{t},
		HitNext: tbl.BaseNext, MissNext: t, Budget: budget, InsertLimit: limit,
	})
	prog.Tables[name] = ct
}

// benchMeasureDash times Measure of dash batches on prog, each row on a
// NIC of its own.
func benchMeasureDash(b *testing.B, prog *p4ir.Program) {
	dash := func() (*nicsim.NIC, *Collector, *trafficgen.Generator) {
		col := NewCollector()
		nic, err := nicsim.New(prog, nicsim.Config{
			Params: costmodel.BlueField2(), Collector: col, Instrument: true,
			Seed: 5, NoiseStdDev: 0.01, CacheFillCostNs: 500,
		})
		if err != nil {
			b.Fatal(err)
		}
		gen := trafficgen.New(4, trafficgen.DefaultPacketBytes)
		gen.AddFlows(dashFlows()...)
		gen.SetSkew(0.9)
		return nic, col, gen
	}
	b.Run("repeat", func(b *testing.B) {
		nic, _, gen := dash()
		pkts := gen.Batch(8192)
		nic.Measure(pkts) // warm: buffers sized
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			nic.Measure(pkts)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pkts)), "ns/pkt")
	})
	b.Run("fresh", func(b *testing.B) {
		nic, col, gen := dash()
		benchMeasureFresh(b, nic, col, []*trafficgen.Generator{gen}, 1, 8192, 8)
	})
}

// benchMeasureFresh times Measure of a new batch of n packets per
// iteration, from gens in turn, rotate batches each, the collector reset
// before every window of the given number of batches. Drawing the batch
// and the reset are not timed.
func benchMeasureFresh(b *testing.B, nic *nicsim.NIC, col *Collector, gens []*trafficgen.Generator, rotate, n, window int) {
	pkts := make([]*packet.Packet, n)
	gens[0].BatchInto(pkts)
	nic.Measure(pkts) // warm: buffers sized
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		gens[i/rotate%len(gens)].BatchInto(pkts)
		if i%window == 0 {
			col.Reset()
		}
		b.StartTimer()
		nic.Measure(pkts)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/pkt")
}

// BenchmarkMeasure measures batch throughput of the burst datapath on an
// un-instrumented, noise-free NIC (so the walk finishes inline), reporting
// wall-clock packets per second.
func BenchmarkMeasure(b *testing.B) {
	prog := synth.Program(synth.ProgramSpec{Pipelets: 6, AvgLen: 2, Category: synth.Mixed, Seed: 3})
	gen := trafficgen.New(4, 0)
	gen.AddFlows(trafficgen.UniformFlows(5, 256)...)
	pkts := gen.Batch(4096)
	nic, err := nicsim.New(prog, nicsim.Config{Params: costmodel.BlueField2()})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		nic.Measure(pkts)
	}
	elapsed := time.Since(start).Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N*len(pkts))/elapsed, "pkts/s")
	}
}

// BenchmarkSearchCold measures one full optimization round on a fresh
// session per iteration — everything (partition, dependency analysis,
// candidate skeletons, verification) from scratch: same program, same
// profile and identical (bit-for-bit) results as the warm session's.
func BenchmarkSearchCold(b *testing.B) {
	prog, cfg, pm, _ := ablationSearchInput()
	prof := synth.SynthesizeProfile(prog, synth.ProfileSpec{Seed: 7, Category: synth.Mixed})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := opt.NewSession(prog, pm, *cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Search(prof); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchWarm measures a repeat round on a warm session with the
// very profile it is already on: no refresh of the cost view, no
// re-verification, every unit priced again on its skeleton. No caller
// produces this round (the runtime skips an unchanged profile before the
// search); archived but not gated — internal/opt's BenchmarkSearchDrift is
// the search the loop asks for.
func BenchmarkSearchWarm(b *testing.B) {
	prog, cfg, pm, _ := ablationSearchInput()
	prof := synth.SynthesizeProfile(prog, synth.ProfileSpec{Seed: 7, Category: synth.Mixed})
	s, err := opt.NewSession(prog, pm, *cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Search(prof); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Search(prof); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlacementPlan measures the three-way N-tier placement search
// (table copies, re-tiering, whole-stage off-path offload) on the shared
// search workload with every third table floored off the ASIC.
func BenchmarkPlacementPlan(b *testing.B) {
	prog, _, _, _ := ablationSearchInput()
	pm := costmodel.BlueField2()
	nth := 0
	for _, name := range prog.NodeNames() {
		if t, _ := prog.Node(name); t != nil {
			if nth%3 == 1 {
				t.MinTier = 1
			}
			nth++
		}
	}
	prof := synth.SynthesizeProfile(prog, synth.ProfileSpec{Seed: 7, Category: synth.Mixed})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := opt.NewPlacement(prog, pm)
		if _, err := opt.GreedyPlacementPlan(prog, prof, pm, base, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApplyPlan measures graph rewriting.
func BenchmarkApplyPlan(b *testing.B) {
	prog, cfg, pm, _ := ablationSearchInput()
	prof := synth.SynthesizeProfile(prog, synth.ProfileSpec{Seed: 7, Category: synth.Mixed})
	sr := searchFresh(b, prog, prof, pm, *cfg)
	if len(sr.Plan) == 0 {
		b.Skip("no plan")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.Apply(prog, sr.Plan, *cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProgramJSONRoundTrip measures IR (de)serialization.
func BenchmarkProgramJSONRoundTrip(b *testing.B) {
	prog := synth.Program(synth.ProgramSpec{Pipelets: 12, AvgLen: 3, Category: synth.Mixed, Seed: 11})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := prog.MarshalJSON()
		if err != nil {
			b.Fatal(err)
		}
		back := &p4ir.Program{}
		if err := back.UnmarshalJSON(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPacketParseSerialize measures the packet substrate.
func BenchmarkPacketParseSerialize(b *testing.B) {
	gen := trafficgen.New(1, 0)
	gen.AddFlows(trafficgen.UniformFlows(2, 16)...)
	wire := gen.Batch(1)[0].Serialize()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := new(packet.Packet)
		if err := packet.ParseInto(p, wire); err != nil {
			b.Fatal(err)
		}
		_ = p.Serialize()
	}
}
