package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestParseGolden pins the bench-output parser end to end: the sample
// `go test -bench` transcript in testdata must convert to exactly the
// archived JSON document. Regenerate with `go test ./cmd/benchjson -update`
// after intentional format changes.
func TestParseGolden(t *testing.T) {
	in, err := os.Open(filepath.Join("testdata", "bench.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()

	var echo bytes.Buffer
	doc, err := parse(in, &echo)
	if err != nil {
		t.Fatal(err)
	}
	got, err := doc.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}

	goldenPath := filepath.Join("testdata", "bench.golden.json")
	if *update {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("parsed document diverges from golden file:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// The input must be echoed verbatim (benchjson sits at the end of a
	// pipeline without hiding the run).
	raw, err := os.ReadFile(filepath.Join("testdata", "bench.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(echo.Bytes(), raw) {
		t.Error("input not echoed verbatim")
	}
}

func TestParseLineRejectsNonResults(t *testing.T) {
	for _, line := range []string{
		"PASS",
		"ok  	pipeleon/internal/nicsim	4.221s",
		"goos: linux",
		"BenchmarkBroken-8 notanumber 12 ns/op",
		"BenchmarkNoMetrics-8 100",
	} {
		if _, _, ok := parseLine(line); ok {
			t.Errorf("parseLine accepted %q", line)
		}
	}
}

func TestStripProcs(t *testing.T) {
	type split struct {
		name  string
		procs int
	}
	cases := map[string]split{
		"BenchmarkEmulatorProcess-8":           {"BenchmarkEmulatorProcess", 8},
		"BenchmarkMeasureParallel/workers-8":   {"BenchmarkMeasureParallel/workers", 8},
		"BenchmarkPlain":                       {"BenchmarkPlain", 1},
		"BenchmarkMeasureParallel/workers-8-8": {"BenchmarkMeasureParallel/workers-8", 8},
		// The "=" convention keeps parameterized sub-benchmarks distinct in
		// both forms go emits: with the -GOMAXPROCS suffix (multi-CPU) and
		// without it (GOMAXPROCS=1, where a "-N" ending would be eaten).
		"BenchmarkMeasureParallel/workers=8-8": {"BenchmarkMeasureParallel/workers=8", 8},
		"BenchmarkMeasureParallel/workers=4":   {"BenchmarkMeasureParallel/workers=4", 1},
	}
	for in, want := range cases {
		if name, procs := splitProcs(in); (split{name, procs}) != want {
			t.Errorf("splitProcs(%q) = %q, %d, want %q, %d", in, name, procs, want.name, want.procs)
		}
	}
}

func bench(name string, metrics map[string]float64) Bench {
	return Bench{Name: name, Iterations: 100, Metrics: metrics}
}

// TestStampGolden pins the stamp: the sample transcript, stamped with a
// fixed machine, converts to exactly the archived stamped document —
// GOMAXPROCS read off its result names (1: one has no suffix), NumCPU, Go version and commit
// beside it.
func TestStampGolden(t *testing.T) {
	in, err := os.Open(filepath.Join("testdata", "bench.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	doc, err := parse(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	doc.stamp(16, "go1.24.0", "0123456789abcdef0123456789abcdef01234567")
	got, err := doc.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	goldenPath := filepath.Join("testdata", "stamped.golden.json")
	if *update {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("stamped document diverges from golden file:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestComparableRefusesOtherCoreCounts: a run is compared with a baseline
// stamped with its GOMAXPROCS and NumCPU, or with an unstamped one, and
// refused against any other.
func TestComparableRefusesOtherCoreCounts(t *testing.T) {
	stamped := func(procs, cpus int) *Doc {
		return &Doc{GOMAXPROCS: procs, NumCPU: cpus, GoVersion: "go1.24.0", Commit: "abc"}
	}
	for _, tc := range []struct {
		name      string
		base, cur *Doc
		ok        bool
	}{
		{"same machine", stamped(2, 2), stamped(2, 2), true},
		{"unstamped baseline", &Doc{}, stamped(8, 8), true},
		{"other GOMAXPROCS", stamped(2, 2), stamped(1, 2), false},
		{"other NumCPU", stamped(2, 2), stamped(2, 4), false},
	} {
		if err := comparable(tc.base, tc.cur); (err == nil) != tc.ok {
			t.Errorf("%s: comparable = %v, want ok %v", tc.name, err, tc.ok)
		}
	}
	// A run is stamped with the lowest GOMAXPROCS its names carry, so a
	// one-CPU run whose first name ends in "-<digits>" itself is still
	// stamped 1, and refused against a two-CPU baseline.
	for _, tc := range []struct {
		name  string
		lines []string
		procs int
	}{
		{"two CPUs", []string{"BenchmarkEntryOp/exact2w-2000-2 10 5 ns/op", "BenchmarkFlowCache/hit-2 10 5 ns/op"}, 2},
		{"one CPU", []string{"BenchmarkEntryOp/exact2w-2000 10 5 ns/op", "BenchmarkFlowCache/hit 10 5 ns/op"}, 1},
		{"eight CPUs", []string{"BenchmarkSwap-8 10 5 ns/op"}, 8},
	} {
		doc, err := parse(strings.NewReader(strings.Join(tc.lines, "\n")), nil)
		if err != nil {
			t.Fatal(err)
		}
		if doc.GOMAXPROCS != tc.procs {
			t.Errorf("%s: stamped GOMAXPROCS=%d, want %d", tc.name, doc.GOMAXPROCS, tc.procs)
		}
		doc.stamp(2, "go1.24.0", "abc")
		if err := comparable(stamped(2, 2), &doc); (err == nil) != (tc.procs == 2) {
			t.Errorf("%s: comparable with a two-CPU baseline = %v", tc.name, err)
		}
	}
}

// TestCompareDocs pins the regression-gate semantics: >max-regress ns/op
// growth fails, any allocs/op growth fails, vanished benchmarks fail, new
// benchmarks and improvements pass, and -gate restricts the checked set.
func TestCompareDocs(t *testing.T) {
	base := Doc{Benchmarks: []Bench{
		bench("BenchmarkEmulatorProcessBurst", map[string]float64{"ns/op": 170, "allocs/op": 0}),
		bench("BenchmarkMeasureParallel/workers=1", map[string]float64{"ns/op": 1000, "pkts/s": 5.5e6}),
		bench("BenchmarkSwap", map[string]float64{"ns/op": 240000}),
	}}

	t.Run("identical run passes", func(t *testing.T) {
		if v := compareDocs(&base, &base, 0.15, nil); len(v) != 0 {
			t.Errorf("identical docs flagged: %v", v)
		}
	})

	t.Run("ns/op within threshold passes", func(t *testing.T) {
		cur := Doc{Benchmarks: []Bench{
			bench("BenchmarkEmulatorProcessBurst", map[string]float64{"ns/op": 170 * 1.10, "allocs/op": 0}),
			bench("BenchmarkMeasureParallel/workers=1", map[string]float64{"ns/op": 900}),
			bench("BenchmarkSwap", map[string]float64{"ns/op": 240000}),
		}}
		if v := compareDocs(&base, &cur, 0.15, nil); len(v) != 0 {
			t.Errorf("10%% growth flagged at 15%% threshold: %v", v)
		}
	})

	t.Run("ns/op regression fails", func(t *testing.T) {
		cur := Doc{Benchmarks: []Bench{
			bench("BenchmarkEmulatorProcessBurst", map[string]float64{"ns/op": 170 * 1.30, "allocs/op": 0}),
			bench("BenchmarkMeasureParallel/workers=1", map[string]float64{"ns/op": 1000}),
			bench("BenchmarkSwap", map[string]float64{"ns/op": 240000}),
		}}
		v := compareDocs(&base, &cur, 0.15, nil)
		if len(v) != 1 || !strings.Contains(v[0], "ns/op") {
			t.Errorf("30%% growth not flagged exactly once: %v", v)
		}
	})

	t.Run("allocs growth fails even when faster", func(t *testing.T) {
		cur := Doc{Benchmarks: []Bench{
			bench("BenchmarkEmulatorProcessBurst", map[string]float64{"ns/op": 150, "allocs/op": 1}),
			bench("BenchmarkMeasureParallel/workers=1", map[string]float64{"ns/op": 1000}),
			bench("BenchmarkSwap", map[string]float64{"ns/op": 240000}),
		}}
		v := compareDocs(&base, &cur, 0.15, nil)
		if len(v) != 1 || !strings.Contains(v[0], "allocs/op") {
			t.Errorf("allocs growth not flagged exactly once: %v", v)
		}
	})

	t.Run("alloc rounding wobble on macro benches passes", func(t *testing.T) {
		big := Doc{Benchmarks: []Bench{
			bench("BenchmarkFig12a", map[string]float64{"ns/op": 2e7, "allocs/op": 45800}),
		}}
		cur := Doc{Benchmarks: []Bench{
			bench("BenchmarkFig12a", map[string]float64{"ns/op": 2e7, "allocs/op": 45801}),
		}}
		if v := compareDocs(&big, &cur, 0.15, nil); len(v) != 0 {
			t.Errorf("+-1 alloc wobble on a 45k-alloc bench flagged: %v", v)
		}
		cur.Benchmarks[0].Metrics["allocs/op"] = 45800 * 1.01
		if v := compareDocs(&big, &cur, 0.15, nil); len(v) != 1 {
			t.Errorf("1%% alloc growth not flagged: %v", v)
		}
	})

	t.Run("repeated runs compare best-of-N", func(t *testing.T) {
		cur := Doc{Benchmarks: []Bench{
			// -count=3: one noisy outlier, one clean run, one middling.
			bench("BenchmarkEmulatorProcessBurst", map[string]float64{"ns/op": 170 * 1.40, "allocs/op": 0}),
			bench("BenchmarkEmulatorProcessBurst", map[string]float64{"ns/op": 168, "allocs/op": 0}),
			bench("BenchmarkEmulatorProcessBurst", map[string]float64{"ns/op": 170 * 1.10, "allocs/op": 0}),
			bench("BenchmarkMeasureParallel/workers=1", map[string]float64{"ns/op": 1000}),
			bench("BenchmarkSwap", map[string]float64{"ns/op": 240000}),
		}}
		if v := compareDocs(&base, &cur, 0.15, nil); len(v) != 0 {
			t.Errorf("best-of-3 within threshold flagged: %v", v)
		}
		// All three repeats regressed: now it is real.
		for i := 0; i < 3; i++ {
			cur.Benchmarks[i].Metrics["ns/op"] = 170 * 1.30
		}
		if v := compareDocs(&base, &cur, 0.15, nil); len(v) != 1 {
			t.Errorf("consistent regression across repeats not flagged exactly once: %v", v)
		}
	})

	t.Run("vanished benchmark fails", func(t *testing.T) {
		cur := Doc{Benchmarks: []Bench{
			bench("BenchmarkEmulatorProcessBurst", map[string]float64{"ns/op": 170, "allocs/op": 0}),
			bench("BenchmarkSwap", map[string]float64{"ns/op": 240000}),
		}}
		v := compareDocs(&base, &cur, 0.15, nil)
		if len(v) != 1 || !strings.Contains(v[0], "missing") {
			t.Errorf("vanished benchmark not flagged: %v", v)
		}
	})

	t.Run("new benchmark passes freely", func(t *testing.T) {
		cur := Doc{Benchmarks: append([]Bench{
			bench("BenchmarkBrandNew", map[string]float64{"ns/op": 1e9}),
		}, base.Benchmarks...)}
		if v := compareDocs(&base, &cur, 0.15, nil); len(v) != 0 {
			t.Errorf("new benchmark flagged: %v", v)
		}
	})

	t.Run("gate regexp restricts the checked set", func(t *testing.T) {
		cur := Doc{Benchmarks: []Bench{
			bench("BenchmarkEmulatorProcessBurst", map[string]float64{"ns/op": 170, "allocs/op": 0}),
			bench("BenchmarkMeasureParallel/workers=1", map[string]float64{"ns/op": 1000}),
			bench("BenchmarkSwap", map[string]float64{"ns/op": 240000 * 10}),
		}}
		re := regexp.MustCompile(`^Benchmark(EmulatorProcess|MeasureParallel)`)
		if v := compareDocs(&base, &cur, 0.15, re); len(v) != 0 {
			t.Errorf("ungated benchmark flagged despite -gate: %v", v)
		}
		if v := compareDocs(&base, &cur, 0.15, nil); len(v) != 1 {
			t.Errorf("expected the Swap regression without -gate: %v", v)
		}
	})
}

// TestArchivedNamesKeepTheirProcsSuffix: no archived row may be named with
// a trailing "-<digits>" of its own. On a GOMAXPROCS=1 run Go appends no
// suffix, so splitProcs would take that part of the name for one, and rows
// such as "exact2w-2000" and "exact2w-16000" would collapse into one
// "exact2w"; parameterized names use "=" instead (see splitProcs).
func TestArchivedNamesKeepTheirProcsSuffix(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("vacuous: no BENCH_*.json archive at the repository root")
	}
	suffix := regexp.MustCompile(`-[0-9]+$`)
	for _, path := range paths {
		doc, err := readDoc(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range doc.Benchmarks {
			if suffix.MatchString(b.Name) {
				t.Errorf("%s: row %q ends in -<digits>, which a one-CPU run parses as a GOMAXPROCS suffix", filepath.Base(path), b.Name)
			}
		}
	}
}
