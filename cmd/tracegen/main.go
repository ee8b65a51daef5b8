// Command tracegen writes the golden traces: it synthesizes a P4 program,
// runs the Pipeleon runtime loop against the emulator, and writes the
// device's capabilities, the program and every profile window the loop
// closed to a JSON file (target.Trace). It is the only producer of the
// traces under testdata/traces/, which `pipeleon -trace` re-optimizes
// offline and the corpus tests in internal/opt and internal/analysis
// read; `make traces` rewrites them, and a test here holds them to what
// tracegen records today.
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
	"io"
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

// spec is one trace's recipe, the flags of a run.
type spec struct {
	model                           string
	rounds, flows, perWin, pipelets int
	seed                            uint64
	avgLen                          float64
}

func main() {
	var s spec
	out := flag.String("out", "", "output trace path (required)")
	flag.StringVar(&s.model, "target", "bluefield2", "bluefield2|agiliocx|emulated")
	flag.IntVar(&s.rounds, "rounds", 3, "optimization rounds to record")
	flag.IntVar(&s.flows, "flows", 400, "flows in the synthetic workload")
	flag.IntVar(&s.perWin, "pps-window", 4000, "packets driven per window")
	flag.Uint64Var(&s.seed, "seed", 7, "seed for program, traffic, and emulator")
	flag.IntVar(&s.pipelets, "pipelets", 6, "synthesized program pipelet count")
	flag.Float64Var(&s.avgLen, "avglen", 2, "synthesized mean pipelet length")
	flag.Parse()
	if *out == "" {
		flag.Usage()
		os.Exit(2)
	}
	trace, _, err := record(s, os.Stdout)
	if err != nil {
		fatal("%v", err)
	}
	if err := trace.SaveFile(*out); err != nil {
		fatal("writing %s: %v", *out, err)
	}
	fmt.Printf("tracegen: wrote %s (%d profiles)\n", *out, len(trace.Profiles))
}

// windows is the device tracegen records: the emulator, keeping a copy of
// each profile window the runtime closes.
type windows struct {
	*target.Local
	closed []*profile.Profile
}

func (w *windows) Profile(reset bool) (*profile.Profile, error) {
	p, err := w.Local.Profile(reset)
	if err == nil && reset {
		w.closed = append(w.closed, p.Clone())
	}
	return p, err
}

// record runs s's rounds and returns the trace and the runtime that ran
// them, logging one line per round to log.
func record(s spec, log io.Writer) (*target.Trace, *core.Runtime, error) {
	pm, ok := costmodel.ByName(s.model)
	if !ok {
		return nil, nil, fmt.Errorf("unknown target %q", s.model)
	}
	prog := synth.Program(synth.ProgramSpec{
		Pipelets: s.pipelets,
		AvgLen:   s.avgLen,
		Category: synth.Mixed,
		Seed:     s.seed,
	})
	col := profile.NewCollector()
	nic, err := nicsim.New(prog, nicsim.Config{
		Params: pm, Collector: col, Instrument: true, Seed: s.seed + 1,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("emulator: %w", err)
	}
	dev := &windows{Local: target.NewLocal(nic, col)}
	rt, err := core.NewRuntime(prog, dev, opt.DefaultConfig())
	if err != nil {
		return nil, nil, fmt.Errorf("runtime: %w", err)
	}

	gen := trafficgen.New(s.seed+2, 0)
	gen.AddFlows(trafficgen.UniformFlows(s.seed+3, s.flows)...)
	gen.SetSkew(0.9)
	for i := 0; i < s.rounds; i++ {
		if _, err := dev.Measure(gen.Batch(s.perWin)); err != nil {
			return nil, nil, fmt.Errorf("measure: %w", err)
		}
		rep, err := rt.OptimizeOnce(time.Second)
		if err != nil {
			return nil, nil, fmt.Errorf("optimize round %d: %w", rep.Round, err)
		}
		fmt.Fprintf(log, "tracegen: round %d deployed=%v gain=%.0f plan=%v\n",
			rep.Round, rep.Deployed, rep.Gain, rep.Plan)
	}

	trace := &target.Trace{
		Name:         fmt.Sprintf("%s-synth-%d", pm.Name, s.seed),
		Capabilities: dev.Capabilities(),
		Profiles:     dev.closed,
	}
	if err := trace.EmbedProgram(prog); err != nil {
		return nil, nil, fmt.Errorf("embedding program: %w", err)
	}
	return trace, rt, nil
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "tracegen: "+format+"\n", args...)
	os.Exit(1)
}
