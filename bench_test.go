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
		b.Run(fmt.Sprintf("buckets-%d", buckets), func(b *testing.B) {
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
		b.Run(fmt.Sprintf("cap-%d", cap), func(b *testing.B) {
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
				gain = sr.Gain
				mem, _ = opt.PlanCosts(sr.Plan)
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

// BenchmarkMeasureParallel measures batch throughput of the burst
// datapath at different worker counts, reporting wall-clock packets per
// second. workers=1 is the serial burst path; workers>1 fan out over
// SPSC-ring-fed goroutines with RSS flow steering. On multicore hardware
// the wide counts should scale past serial; on a single-core runner they
// mainly confirm the ring machinery adds no meaningful overhead. The
// sub-benchmark names use "=" (not "-") so the name survives benchjson's
// -procs-suffix stripping with the worker count intact.
func BenchmarkMeasureParallel(b *testing.B) {
	prog := synth.Program(synth.ProgramSpec{Pipelets: 6, AvgLen: 2, Category: synth.Mixed, Seed: 3})
	gen := trafficgen.New(4, 0)
	gen.AddFlows(trafficgen.UniformFlows(5, 256)...)
	pkts := gen.Batch(4096)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			nic, err := nicsim.New(prog, nicsim.Config{Params: costmodel.BlueField2()})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				nic.MeasureParallel(pkts, workers)
			}
			elapsed := time.Since(start).Seconds()
			if elapsed > 0 {
				b.ReportMetric(float64(b.N*len(pkts))/elapsed, "pkts/s")
			}
		})
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
	wire := gen.Next().Serialize()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := ParsePacket(wire)
		if err != nil {
			b.Fatal(err)
		}
		_ = p.Serialize()
	}
}
