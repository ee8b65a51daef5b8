package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// The tests run from the repository root, like the benchmark itself:
// testdata/dash.p4 and BENCHMARK.json are found relative to it.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	replayBatch = 512
	os.Exit(m.Run())
}

// tiny shrinks a workload to smoke-test size: the same loop and layers
// over fewer packets and a smaller synthesized program.
func tiny(w *workload) *workload {
	t := *w
	t.packets /= 32
	t.verifyPackets /= 4
	if t.chunks > 2 {
		t.chunks = 2
	}
	if t.pipelets > 0 {
		t.pipelets = t.pipelets/4 + 2
	}
	return &t
}

const tinySeconds = 0.01 // every workload falls back to its three-window minimum

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesProgram holds BENCHMARK.json to the tables the
// program emits from, and both to the contract's limits.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q breaks the contract's pattern", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		name(w.name)
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the program %q / %q",
				i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	if len(bf.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program emits %d", len(bf.EndToEnd), len(endToEndMetrics))
	}
	setup := false
	for i, d := range endToEndMetrics {
		name(d.name)
		got := bf.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
		if !unitRE.MatchString(d.unit) || d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("end-to-end metric %s: unit %q or bound %v outside the contract", d.name, d.unit, d.bound)
		}
		setup = setup || d.name == "setup_s" && d.unit == "s" && d.better == "lower"
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(bf.PerLayer) != len(perLayerMetrics) || len(perLayerMetrics) > 128 {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program emits %d (limit 128)", len(bf.PerLayer), len(perLayerMetrics))
	}
	for i, d := range perLayerMetrics {
		name(d.name)
		got := bf.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("per-layer metric %s: unit %q outside the contract", d.name, d.unit)
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 || len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("run_seconds %d or paths %v outside the contract", bf.RunSeconds, bf.Paths)
	}
}

// deterministic are the simulated metrics: the emulator's modelled
// nanoseconds repeat exactly for a seed.
var deterministic = []string{"sim_latency_ns", "sim_gain_pct", "sim_tput_gbps", "model_err_pct"}

// TestWorkloads runs every workload at smoke-test size, untraced twice on
// one seed and once on another, then traced, and checks what the issue
// asks of the output: every metric of BENCHMARK.json and no other, finite
// values, nothing failed, simulated metrics bit-identical on a seed and
// different on another, control-plane spans on fleet-remote only.
func TestWorkloads(t *testing.T) {
	for _, full := range workloads {
		w := tiny(full)
		t.Run(w.name, func(t *testing.T) {
			a, err := runUntraced(w, 1, tinySeconds)
			if err != nil {
				t.Fatal(err)
			}
			if a.failed != 0 || !a.correct || a.attempted < 1 {
				t.Fatalf("%d of %d operations failed, correct=%v: %s", a.failed, a.attempted, a.correct, a.failure)
			}
			if len(a.metrics) != len(endToEndMetrics) {
				t.Errorf("emitted %d end-to-end metrics, BENCHMARK.json lists %d", len(a.metrics), len(endToEndMetrics))
			}
			for _, d := range endToEndMetrics {
				v, ok := a.metrics[d.name]
				if !ok || v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("end-to-end metric %s = %v (present %v): must be emitted and never 0", d.name, v, ok)
				}
			}
			b, err := runUntraced(w, 1, tinySeconds)
			if err != nil {
				t.Fatal(err)
			}
			c, err := runUntraced(w, 2, tinySeconds)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range deterministic {
				if a.metrics[name] != b.metrics[name] {
					t.Errorf("%s differs between two runs of seed 1: %v and %v", name, a.metrics[name], b.metrics[name])
				}
				if a.metrics[name] == c.metrics[name] {
					t.Errorf("%s is %v on seed 1 and on seed 2: the seed does not reach the inputs", name, a.metrics[name])
				}
			}

			tr, err := runTraced(w, 1, tinySeconds)
			if err != nil {
				t.Fatal(err)
			}
			if tr.failed != 0 || !tr.correct {
				t.Fatalf("traced: %d operations failed, correct=%v: %s", tr.failed, tr.correct, tr.failure)
			}
			if len(tr.metrics) != len(perLayerMetrics) {
				t.Errorf("emitted %d per-layer metrics, BENCHMARK.json lists %d", len(tr.metrics), len(perLayerMetrics))
			}
			for _, d := range perLayerMetrics {
				if v, ok := tr.metrics[d.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("per-layer metric %s = %v (present %v)", d.name, v, ok)
				}
			}
			wire := 0
			for _, s := range tr.spans {
				if s.Workload != w.name || s.ID == 0 || s.EndNs < s.StartNs {
					t.Fatalf("malformed span %+v", s)
				}
				if s.Layer == "controlplane" {
					wire++
				}
			}
			if (wire > 0) != (w.devices > 1) {
				t.Errorf("%d control-plane spans on a workload with %d device(s)", wire, w.devices)
			}
			if tr.metrics["controlplane.rtt_us"] > 0 != (w.devices > 1) || tr.metrics["analysis.verify_semantics_ms"] > 0 != w.deep {
				t.Errorf("a layer off this workload's path reports a value: rtt %v, proof %v",
					tr.metrics["controlplane.rtt_us"], tr.metrics["analysis.verify_semantics_ms"])
			}
		})
	}
}

// TestOracleTrips gives the twin a deliberately different program — the
// DASH pipeline with its ACL entries left out — and expects the oracle
// to notice.
func TestOracleTrips(t *testing.T) {
	w := tiny(findWorkload("dash-steady"))
	in := w.inputs(1)
	r, err := buildRig(w, in, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	other := r.prog.Clone()
	other.Tables["acl_level1"].Entries = nil
	other.Tables["acl_level2"].Entries = nil
	if err := r.addTwins(in, other); err != nil {
		t.Fatal(err)
	}
	p := pass(r, in, 3, nil)
	if p.mismatches == 0 || p.failed == 0 {
		t.Fatalf("oracle saw no mismatch against a twin without ACL entries (%d of %d operations failed)", p.failed, p.attempted)
	}
}
