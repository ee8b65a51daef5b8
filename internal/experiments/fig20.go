package experiments

import (
	"fmt"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/nicsim"
	"pipeleon/internal/opt"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/profile"
	"pipeleon/internal/trafficgen"
)

// Fig20 (repo extension, no paper counterpart): the N-tier placement
// crossover map. A three-table stateful stage sits between a routing
// table and a forwarding table; the experiment sweeps traffic locality
// (which sets how deep the off-path DMA descriptor rings batch — bursty
// flows fill rings, sparse flows pay the doorbell round trip per
// packet) against the stage's entry-update rate, and reports which
// execution tier minimizes the modeled per-packet latency at each grid
// point. The expected shape, for a BlueField2-style target:
//
//   - low update rate: the ASIC wins everywhere (line-rate lookups,
//     no churn to pay for);
//   - high update rate, low locality: the on-path NIC CPU wins (churn
//     makes ASIC table installs stall the pipeline, and per-packet DMA
//     doorbells price the host out);
//   - high update rate, high locality: the off-path host tier wins —
//     the PnO-style whole-stage offload, where deep DMA batches
//     amortize the crossing and host memory absorbs the churn.

// placemapStage names the stateful stage tables.
var placemapStage = []string{"st0", "st1", "st2"}

// placemapProgram builds route → st0 → st1 → st2 → fwd. The stage
// tables have no tier floor: any tier may run them, which is what makes
// the placement question non-trivial.
func placemapProgram() *p4ir.Program {
	specs := []p4ir.TableSpec{
		regularTable("route", "ipv4.dstAddr", 2, 8, 301),
		regularTable("st0", "ipv4.srcAddr", 6, 8, 302),
		regularTable("st1", "tcp.sport", 6, 8, 303),
		regularTable("st2", "tcp.dport", 6, 8, 304),
		regularTable("fwd", "ipv4.tos", 2, 8, 305),
	}
	prog, err := p4ir.ChainTables("placemap", specs)
	if err != nil {
		panic(err)
	}
	return prog
}

// placemapParams is a BlueField2-style three-tier model with the DMA
// batch depth set by traffic locality.
func placemapParams(locality float64) costmodel.Params {
	pm := costmodel.BlueField2()
	pm.DMABatch = 1 + int(locality*31+0.5)
	return pm
}

// placemapWinner returns the tier (0..Kernel.Tiers-1) whose whole-stage
// placement minimizes the modeled latency, iterating tiers generically
// — concrete tier names stay inside costmodel.
func placemapWinner(prog *p4ir.Program, prof *profile.Profile, pm costmodel.Params) (int, error) {
	winner, best := 0, 0.0
	view := opt.NewEvaluator(prog, prof, pm, opt.Config{})
	for t := 0; t < pm.Kernel().Tiers; t++ {
		pl := opt.Placement{Tier: map[string]costmodel.TierID{}, Copies: map[string]bool{}}
		for _, name := range placemapStage {
			pl.Tier[name] = costmodel.TierID(t)
		}
		lat, err := view.HeteroLatency(pl)
		if err != nil {
			return 0, err
		}
		if t == 0 || lat < best {
			winner, best = t, lat
		}
	}
	return winner, nil
}

// Fig20 sweeps locality × update rate and emits the winning tier per
// grid point (one series per update rate; Y is the tier index), plus a
// measured spot-check series from the emulator at the deepest batch.
func Fig20(opts RunOpts) *Result {
	res := &Result{
		ID: "fig20", Title: "N-tier placement crossover: locality × update rate",
		XLabel: "traffic locality (DMA batch fill)", YLabel: "winning tier (0=asic)",
	}
	prog := placemapProgram()
	localities := []float64{0, 0.25, 0.5, 0.75, 1}
	for _, updRate := range []float64{0, 1e3, 1e4, 1e5, 1e6} {
		prof := profile.New()
		for _, name := range placemapStage {
			prof.UpdateRates[name] = updRate
		}
		var xs, ys []float64
		for _, loc := range localities {
			w, err := placemapWinner(prog, prof, placemapParams(loc))
			if err != nil {
				panic(err)
			}
			xs = append(xs, loc)
			ys = append(ys, float64(w))
		}
		res.AddSeries(fmt.Sprintf("updates-%.0f/s", updRate), xs, ys)
	}

	// Emulator spot-check at full locality, no churn: measured latency
	// per whole-stage tier placement. The ordering (ASIC fastest, host
	// beating the NIC CPU once batches amortize the DMA) must match the
	// model's — this keeps predicted and measured latency comparable.
	pm := placemapParams(1)
	nPkts := opts.pick(4000, 800)
	var xs, ys []float64
	for t := 0; t < pm.Kernel().Tiers; t++ {
		tiers := map[string]int{}
		for _, name := range placemapStage {
			tiers[name] = t
		}
		nic, err := nicsim.New(placemapProgram(), nicsim.Config{
			Params: pm, Seed: opts.Seed + uint64(t), TierTables: tiers,
		})
		if err != nil {
			panic(err)
		}
		gen := trafficgen.New(opts.Seed+uint64(t)*13+5, 0)
		gen.AddFlows(trafficgen.UniformFlows(opts.Seed+17, 200)...)
		m := nic.Measure(gen.Batch(nPkts))
		xs = append(xs, float64(t))
		ys = append(ys, m.MeanLatencyNs)
	}
	res.AddSeries("measured-ns-by-tier@loc=1", xs, ys)
	res.Note("each tier wins a region: ASIC under low churn, NIC CPU under churn with sparse traffic, off-path host under churn with deep DMA batches")
	return res
}
