// Command tracegen records golden replay traces: it synthesizes a P4
// program, runs the Pipeleon runtime loop against the emulator behind a
// recording target, and writes the captured trace (with the program
// embedded) to a JSON file. The traces under testdata/traces/ power
// hermetic replay tests — a full runtime round trip with no emulator in
// the test process — and `pipeleon -trace` offline tuning.
//
// Usage:
//
//	tracegen -out testdata/traces/bluefield2.json [-target bluefield2]
//	         [-rounds 3] [-flows 400] [-pps-window 4000] [-seed 7]
//	         [-pipelets 6] [-avglen 2]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"pipeleon/internal/core"
	"pipeleon/internal/costmodel"
	"pipeleon/internal/nicsim"
	"pipeleon/internal/opt"
	"pipeleon/internal/profile"
	"pipeleon/internal/synth"
	"pipeleon/internal/target"
	"pipeleon/internal/trafficgen"
)

func main() {
	var (
		out      = flag.String("out", "", "output trace path (required)")
		model    = flag.String("target", "bluefield2", "bluefield2|agiliocx|emulated")
		rounds   = flag.Int("rounds", 3, "optimization rounds to record")
		flows    = flag.Int("flows", 400, "flows in the synthetic workload")
		perWin   = flag.Int("pps-window", 4000, "packets driven per window")
		seed     = flag.Uint64("seed", 7, "seed for program, traffic, and emulator")
		pipelets = flag.Int("pipelets", 6, "synthesized program pipelet count")
		avgLen   = flag.Float64("avglen", 2, "synthesized mean pipelet length")
	)
	flag.Parse()
	if *out == "" {
		flag.Usage()
		os.Exit(2)
	}
	pm, ok := costmodel.ByName(*model)
	if !ok {
		fatal("unknown target %q", *model)
	}

	prog := synth.Program(synth.ProgramSpec{
		Pipelets: *pipelets,
		AvgLen:   *avgLen,
		Category: synth.Mixed,
		Seed:     *seed,
	})
	col := profile.NewCollector()
	nic, err := nicsim.New(prog, nicsim.Config{
		Params: pm, Collector: col, Instrument: true, Seed: *seed + 1,
	})
	if err != nil {
		fatal("emulator: %v", err)
	}
	rec := target.NewRecorder(target.NewLocal(nic, col), fmt.Sprintf("%s-synth-%d", pm.Name, *seed))
	rt, err := core.NewRuntime(prog, rec, opt.DefaultConfig())
	if err != nil {
		fatal("runtime: %v", err)
	}

	gen := trafficgen.New(*seed+2, 0)
	gen.AddFlows(trafficgen.UniformFlows(*seed+3, *flows)...)
	gen.SetSkew(0.9)
	for i := 0; i < *rounds; i++ {
		if _, err := rec.Measure(gen.Batch(*perWin)); err != nil {
			fatal("measure: %v", err)
		}
		rep, err := rt.OptimizeOnce(time.Second)
		if err != nil {
			fatal("optimize round %d: %v", rep.Round, err)
		}
		fmt.Printf("tracegen: round %d deployed=%v gain=%.0f plan=%v\n",
			rep.Round, rep.Deployed, rep.Gain, rep.Plan)
	}

	trace := rec.Trace()
	if err := trace.EmbedProgram(prog); err != nil {
		fatal("embedding program: %v", err)
	}
	if err := trace.SaveFile(*out); err != nil {
		fatal("writing %s: %v", *out, err)
	}
	fmt.Printf("tracegen: wrote %s (%d measurements, %d profiles, %d cache snapshots)\n",
		*out, len(trace.Measurements), len(trace.Profiles), len(trace.CacheStats))
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "tracegen: "+format+"\n", args...)
	os.Exit(1)
}
