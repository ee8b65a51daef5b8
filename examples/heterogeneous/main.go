// Heterogeneous: §3.2.4 / appendix A.2 as a runnable demo, extended to
// the N-tier placement layer. A program interleaves ASIC-supported
// tables with tables only CPU cores can run; the naive partition
// migrates each packet at every boundary. The placement planner has
// three moves: copy a table onto every tier (appendix A.2), re-tier a
// table, and offload a whole stage to the off-path DPU/host tier —
// worthwhile once table churn stalls the on-path tiers and DMA batches
// amortize the crossing.
//
//	go run ./examples/heterogeneous
package main

import (
	"fmt"
	"log"
	"sort"

	"pipeleon"
)

func buildInterleaved() *pipeleon.Program {
	mk := func(name string, minTier int) pipeleon.TableSpec {
		return pipeleon.TableSpec{
			Name: name,
			Keys: []pipeleon.Key{{Field: "ipv4.dstAddr", Kind: pipeleon.MatchExact, Width: 32}},
			Actions: []*pipeleon.Action{
				pipeleon.NewAction("work", pipeleon.Prim("modify_field", "meta."+name, "1"),
					pipeleon.Prim("modify_field", "meta."+name+"_b", "2")),
			},
			MinTier: minTier,
		}
	}
	var specs []pipeleon.TableSpec
	for i := 0; i < 4; i++ {
		specs = append(specs, mk(fmt.Sprintf("cpu_only%d", i), 1))
		specs = append(specs, mk(fmt.Sprintf("asic%d", i), 0))
	}
	specs = append(specs, mk("cpu_only4", 1))
	prog, err := pipeleon.ChainTables("interleaved", specs)
	if err != nil {
		log.Fatal(err)
	}
	return prog
}

// measure runs the emulator on the program annotated with the placement.
func measure(target pipeleon.Target, pl pipeleon.Placement, gen *pipeleon.TrafficGen) pipeleon.Measurement {
	emu, err := pipeleon.NewEmulator(pl.Annotate(buildInterleaved()), pipeleon.EmulatorConfig{Params: target})
	if err != nil {
		log.Fatal(err)
	}
	return emu.Measure(gen.Batch(3000))
}

func describe(pl pipeleon.Placement) string {
	var copies []string
	for name := range pl.Copies {
		copies = append(copies, name)
	}
	sort.Strings(copies)
	offPath := 0
	for _, d := range pl.Tier {
		if d > 1 {
			offPath++
		}
	}
	return fmt.Sprintf("%d copies %v, %d tables off-path", len(copies), copies, offPath)
}

// plan runs the greedy placement search and prints modeled + measured
// latency for the result.
func plan(label string, target pipeleon.Target, prog *pipeleon.Program, prof *pipeleon.Profile, gen *pipeleon.TrafficGen) {
	base := pipeleon.NewPlacement(prog, target)
	baseLat, err := pipeleon.EstimateHeteroLatency(prog, prof, target, base)
	if err != nil {
		log.Fatal(err)
	}
	baseMeas := measure(target, base, gen)
	fmt.Printf("%s\n  baseline: modeled %6.0f ns  measured %6.0f ns  %.1f migrations/pkt\n",
		label, baseLat, baseMeas.MeanLatencyNs, baseMeas.MeanMigrations)

	pl, err := pipeleon.PlanPlacement(prog, prof, target, base, 8)
	if err != nil {
		log.Fatal(err)
	}
	planLat, err := pipeleon.EstimateHeteroLatency(prog, prof, target, pl)
	if err != nil {
		log.Fatal(err)
	}
	planMeas := measure(target, pl, gen)
	fmt.Printf("  planned:  modeled %6.0f ns  measured %6.0f ns  %.1f migrations/pkt\n",
		planLat, planMeas.MeanLatencyNs, planMeas.MeanMigrations)
	fmt.Println("            " + describe(pl))
}

func main() {
	prog := buildInterleaved()

	// Profile the baseline under live traffic (on the two-tier target;
	// the counters only depend on the program and the flows).
	col := pipeleon.NewCollector()
	emu, err := pipeleon.NewEmulator(prog.Clone(), pipeleon.EmulatorConfig{
		Params: pipeleon.EmulatedNIC(), Collector: col, Instrument: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	gen := pipeleon.NewTrafficGen(21)
	gen.AddFlows(pipeleon.UniformFlows(22, 200)...)
	emu.Measure(gen.Batch(3000))
	prof := col.Snapshot()

	// Two-tier target: the only move is appendix A.2 table copying —
	// interleaved ASIC tables get copied so packets stay on the CPU side.
	plan("EmulatedNIC (two tiers: ASIC + CPU)", pipeleon.EmulatedNIC(), prog, prof, gen)

	// Three-tier target: the off-path DPU/host tier is faster than the
	// NIC CPU here, and one DMA crossing beats nine migrations, so the
	// planner offloads the whole chain (the PnO-style move).
	fmt.Println()
	plan("BlueField2 (three tiers: + off-path DPU/host)", pipeleon.BlueField2(), prog, prof, gen)

	// Churn: heavy entry updates stall the non-copied tables, so on top
	// of the offload the planner copies the churning ASIC tables.
	for name := range prog.Tables {
		prof.UpdateRates[name] = 2e5
	}
	fmt.Println()
	plan("BlueField2 under 200k table updates/s", pipeleon.BlueField2(), prog, prof, gen)

	fmt.Println("\ntwo tiers: copying keeps packets on one pipeline (appendix A.2).")
	fmt.Println("three tiers: whole-stage off-path offload replaces nine migrations")
	fmt.Println("with one DMA crossing; churn adds copies to dodge update stalls.")
}
