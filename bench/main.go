// Command bench is Pipeleon's end-to-end benchmark: five closed-loop
// workloads over the whole profile → search → verified deploy loop, gated
// end-to-end metrics, and a traced per-layer budget. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// A run builds the system under test at least setupRepeats times, and
// keeps building until setupBudget is spent or setupMax is reached, so a
// millisecond set-up gets the samples its median needs. setup_s is the
// median; the windows run on the last build.
const (
	setupRepeats = 5
	setupMax     = 100
	setupBudget  = time.Second
)

// value is one metric as the driver reads it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// verdict is the last line of standard output in -workload mode.
type verdict struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// environment stamps every result, so numbers from different machines or
// core counts are never compared silently.
type environment struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
}

func stampEnvironment() environment {
	env := environment{
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		Commit: "unknown", GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPU: "unknown",
	}
	// Output waits for git to exit; outside a git checkout it just fails.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// workloadResult is one workload's entry in the -out result file.
type workloadResult struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Sizes     map[string]int     `json:"sizes"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Correct   bool               `json:"correct"`
	EndToEnd  map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
}

func (w *workload) sizes(seconds float64) map[string]int {
	return map[string]int{
		"windows": w.windows(seconds), "packets_per_window": w.packets * w.devices,
		"chunks_per_window": w.chunks, "devices": w.devices, "verify_packets": w.verifyPackets,
	}
}

// outcome is one run of one workload in one mode.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
	correct   bool
	failure   string
	spans     []span
}

func (o *outcome) add(p *passResult) {
	o.attempted += p.attempted
	o.failed += p.failed
	if p.mismatches > 0 {
		o.correct = false
	}
	if o.failure == "" {
		o.failure = p.failure
	}
}

// system builds the system under test — once, or repeatedly when the run
// reports setup_s — keeps the last build, and returns each build's wall
// time at the reference speed (probe.go).
func system(w *workload, in *inputs, deep bool, tr *tracer, repeat bool) (*rig, []float64, error) {
	var r *rig
	var setupNs []float64
	var probe *speedProbe
	var before float64
	if repeat {
		probe = newSpeedProbe()
		before = probe.run()
	}
	start := time.Now()
	for i := 0; i == 0 || repeat && i < setupMax && (i < setupRepeats || time.Since(start) < setupBudget); i++ {
		if r != nil {
			r.close()
		}
		t0 := time.Now()
		var err error
		if r, err = buildRig(w, in, deep, tr); err != nil {
			return nil, nil, err
		}
		ns := float64(time.Since(t0))
		if repeat {
			after := probe.run()
			ns /= slowdown(before, after)
			before = after
		}
		setupNs = append(setupNs, ns)
	}
	if err := r.addTwins(in, nil); err != nil {
		r.close()
		return nil, nil, err
	}
	return r, setupNs, nil
}

// runUntraced measures the end-to-end metrics: tracing off, one pass.
func runUntraced(w *workload, seed uint64, seconds float64) (*outcome, error) {
	in := w.inputs(seed)
	r, setupNs, err := system(w, in, w.deep, nil, true)
	if err != nil {
		return nil, err
	}
	defer r.close()
	p := pass(r, in, w.windows(seconds), nil)
	fmt.Printf("%s: %d set-ups, %d windows in %.2f s wall at box slowdown %.2f\n",
		w.name, len(setupNs), len(p.wins), p.loopNs/1e9, p.slowdown())
	o := &outcome{correct: true, metrics: endToEnd(setupNs, p)}
	o.add(p)
	return o, nil
}

func printMetrics(title string, defs []metricDef, m map[string]float64) {
	fmt.Printf("%s\n", title)
	for _, d := range defs {
		fmt.Printf("  %-34s %14.4f %s\n", d.name, m[d.name], d.unit)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	var (
		name     = flag.String("workload", "", "run this workload only and end with the driver's one-line JSON verdict (default: every workload untraced, then traced)")
		seed     = flag.Uint64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", 12, "run length: window counts are sized so one workload's window loop takes about this long on the 2-core reference box")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: traced pass plus layer replay, per-layer metrics")
		traceOut = flag.String("trace-out", "", "write the spans of the traced passes to this file as one JSON array")
		outPath  = flag.String("out", "", "write a result file (environment stamp, sizes, every metric) here")
	)
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}
	env := stampEnvironment()
	fmt.Printf("bench: %s %s/%s GOMAXPROCS=%d NumCPU=%d cpu=%q commit=%s seed=%d seconds=%g\n",
		env.GoVersion, env.GOOS, env.GOARCH, env.GOMAXPROCS, env.NumCPU, env.CPU, env.Commit, *seed, *seconds)

	selected := workloads
	modes := []int{0, 1}
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fatal("unknown workload %q", *name)
		}
		selected = []*workload{w}
		modes = []int{*trace}
	}

	var results []workloadResult
	var spans []span
	var last *outcome
	var lastDefs []metricDef
	bad := false
	for _, mode := range modes {
		for _, w := range selected {
			var o *outcome
			var err error
			defs := endToEndMetrics
			if mode == 0 {
				o, err = runUntraced(w, *seed, *seconds)
			} else {
				defs = perLayerMetrics
				o, err = runTraced(w, *seed, *seconds)
			}
			if err != nil {
				fatal("%s: %v", w.name, err)
			}
			printMetrics(fmt.Sprintf("%s (trace %d): %d operations, %d failed", w.name, mode, o.attempted, o.failed), defs, o.metrics)
			if o.failed > 0 {
				bad = true
				fmt.Fprintf(os.Stderr, "bench: %s: %d of %d operations failed; first: %s\n", w.name, o.failed, o.attempted, o.failure)
			}
			res := workloadResult{
				Workload: w.name, Seed: *seed, Seconds: *seconds, Sizes: w.sizes(*seconds),
				Attempted: o.attempted, Failed: o.failed, Correct: o.correct,
			}
			if mode == 0 {
				res.EndToEnd = o.metrics
			} else {
				res.PerLayer = o.metrics
			}
			results = append(results, res)
			spans = append(spans, o.spans...)
			last, lastDefs = o, defs
		}
	}
	if *traceOut != "" {
		if err := writeSpans(*traceOut, spans); err != nil {
			fatal("writing %s: %v", *traceOut, err)
		}
	}
	if *outPath != "" {
		data, err := json.MarshalIndent(struct {
			Environment environment       `json:"environment"`
			Definitions map[string]string `json:"definitions"`
			Results     []workloadResult  `json:"results"`
		}{env, definitions(), results}, "", "  ")
		if err == nil {
			err = os.WriteFile(*outPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fatal("writing %s: %v", *outPath, err)
		}
	}
	if *name != "" {
		v := verdict{Correct: last.correct, Attempted: last.attempted, Failed: last.failed, Metrics: map[string]value{}}
		for _, d := range lastDefs {
			v.Metrics[d.name] = value{Value: last.metrics[d.name], Unit: d.unit}
		}
		line, err := json.Marshal(v)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Println(string(line))
	}
	if bad {
		os.Exit(1)
	}
}
