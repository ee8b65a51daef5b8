// Command benchjson converts `go test -bench` text output into a stable
// JSON document, so benchmark results can be archived and diffed (the
// repo's `make bench` writes BENCH_emulator.json this way).
//
// Usage:
//
//	go test -bench '...' -benchmem | go run ./cmd/benchjson -out BENCH_emulator.json
//
// Input lines it understands look like
//
//	BenchmarkEmulatorProcess-8   	  912310	      1212 ns/op	     848 B/op	       2 allocs/op
//	BenchmarkMeasureParallel/workers-8-8  	     100	  10510000 ns/op	   389000 pkts/s	...
//
// i.e. a benchmark name (the trailing -GOMAXPROCS suffix is stripped), an
// iteration count, then (value, unit) pairs — including custom metrics
// reported via b.ReportMetric. Everything else (PASS, ok, goos lines) is
// passed over; the input is echoed to stdout so the command can sit at the
// end of a pipeline without hiding the run.
//
// The document is stamped with the machine the run is from: GOMAXPROCS
// (the lowest its result names carry), NumCPU, the Go version and the
// commit. -compare refuses a baseline stamped with another GOMAXPROCS or
// NumCPU: numbers from different core counts are not comparable.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// Bench is one parsed benchmark result.
type Bench struct {
	// Name is the benchmark (and sub-benchmark) name without the
	// -GOMAXPROCS suffix, e.g. "BenchmarkMeasureParallel/workers=8".
	Name string `json:"name"`
	// Iterations is b.N for the recorded run.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit -> value: "ns/op", "B/op", "allocs/op", plus any
	// custom b.ReportMetric units such as "pkts/s".
	Metrics map[string]float64 `json:"metrics"`
}

// Doc is the output document.
type Doc struct {
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// GOMAXPROCS is the lowest the run's results were printed under: the
	// suffix Go appends to a benchmark name, 1 for a name without one (see
	// splitProcs). NumCPU, the Go version and the commit are stamped by
	// the command (see stamp); an archive written before them has none.
	GOMAXPROCS int     `json:"gomaxprocs,omitempty"`
	NumCPU     int     `json:"num_cpu,omitempty"`
	GoVersion  string  `json:"go_version,omitempty"`
	Commit     string  `json:"commit,omitempty"`
	Benchmarks []Bench `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "", "output JSON file (default: stdout only)")
	compare := flag.String("compare", "", "baseline JSON file; exit nonzero on regression against it")
	maxRegress := flag.Float64("max-regress", 0.15, "allowed fractional ns/op growth vs the -compare baseline")
	gate := flag.String("gate", "", "regexp restricting which benchmarks the -compare gate checks (default: all)")
	flag.Parse()

	doc, err := parse(os.Stdin, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: reading input: %v\n", err)
		os.Exit(1)
	}
	// Output waits for git to exit; outside a git checkout it just fails.
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
		if exec.Command("git", "diff", "--quiet", "HEAD").Run() != nil {
			commit += "-dirty" // the run is of uncommitted changes on it
		}
	}
	doc.stamp(runtime.NumCPU(), runtime.Version(), commit)

	data, err := doc.MarshalIndent()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if *out == "" {
		os.Stdout.Write(data)
	} else {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(doc.Benchmarks), *out)
	}

	if *compare == "" {
		return
	}
	base, err := readDoc(*compare)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: reading baseline: %v\n", err)
		os.Exit(1)
	}
	var re *regexp.Regexp
	if *gate != "" {
		re, err = regexp.Compile(*gate)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: bad -gate regexp: %v\n", err)
			os.Exit(1)
		}
	}
	if err := comparable(&base, &doc); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	violations := compareDocs(&base, &doc, *maxRegress, re)
	if len(violations) == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: no regressions vs %s (max-regress %.0f%%)\n", *compare, *maxRegress*100)
		return
	}
	for _, v := range violations {
		fmt.Fprintf(os.Stderr, "benchjson: REGRESSION: %s\n", v)
	}
	os.Exit(1)
}

// readDoc loads an archived benchmark document written by -out.
func readDoc(path string) (Doc, error) {
	var d Doc
	data, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(data, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// stamp records the machine a parsed run is from, beside the GOMAXPROCS
// parse read off it.
func (d *Doc) stamp(numCPU int, goVersion, commit string) {
	d.NumCPU, d.GoVersion, d.Commit = numCPU, goVersion, commit
}

// comparable refuses to compare a run with a baseline from another core
// count: both stamped, with a different GOMAXPROCS or NumCPU. A baseline
// archived before the stamp is compared as before.
func comparable(base, cur *Doc) error {
	if base.GOMAXPROCS == 0 || base.NumCPU == 0 {
		return nil
	}
	if base.GOMAXPROCS != cur.GOMAXPROCS || base.NumCPU != cur.NumCPU {
		return fmt.Errorf("refusing to compare: the baseline ran at GOMAXPROCS=%d on %d CPUs, this run at GOMAXPROCS=%d on %d",
			base.GOMAXPROCS, base.NumCPU, cur.GOMAXPROCS, cur.NumCPU)
	}
	return nil
}

// compareDocs is the bench-regression gate: for every baseline benchmark
// (matching gate, when non-nil) it demands the new run be present, within
// maxRegress fractional ns/op growth, and with no allocs/op growth
// (beyond 0.1% + 0.5 of slack, so 0->1 and 2->3 on a hot path fail while
// a +-1 rounding wobble on a 45k-alloc macro-benchmark does not). When a
// run repeats a benchmark (-count=N), the best value per metric is
// compared — the standard defense against scheduler noise on shared
// runners. A benchmark that vanished counts as a violation so the gate
// cannot be dodged by renaming. New benchmarks absent from the baseline
// pass freely.
func compareDocs(base, cur *Doc, maxRegress float64, gate *regexp.Regexp) []string {
	// Per-name minimum of each metric across repeated runs, for both
	// sides (a -count=N baseline gets the same treatment).
	best := func(d *Doc) map[string]map[string]float64 {
		m := make(map[string]map[string]float64, len(d.Benchmarks))
		for _, b := range d.Benchmarks {
			mm := m[b.Name]
			if mm == nil {
				mm = map[string]float64{}
				m[b.Name] = mm
			}
			for unit, v := range b.Metrics {
				if prev, ok := mm[unit]; !ok || v < prev {
					mm[unit] = v
				}
			}
		}
		return m
	}
	baseBest, curBest := best(base), best(cur)

	var violations []string
	seen := make(map[string]bool, len(base.Benchmarks))
	for _, old := range base.Benchmarks {
		if seen[old.Name] || (gate != nil && !gate.MatchString(old.Name)) {
			continue
		}
		seen[old.Name] = true
		now, ok := curBest[old.Name]
		if !ok {
			violations = append(violations, fmt.Sprintf("%s: present in baseline but missing from this run", old.Name))
			continue
		}
		ref := baseBest[old.Name]
		if oldNs, ok := ref["ns/op"]; ok && oldNs > 0 {
			if newNs, ok := now["ns/op"]; ok {
				if growth := newNs/oldNs - 1; growth > maxRegress {
					violations = append(violations, fmt.Sprintf(
						"%s: ns/op %.4g -> %.4g (+%.1f%%, limit +%.0f%%)",
						old.Name, oldNs, newNs, growth*100, maxRegress*100))
				}
			}
		}
		if oldAllocs, ok := ref["allocs/op"]; ok {
			if newAllocs, ok := now["allocs/op"]; ok && newAllocs > oldAllocs*1.001+0.5 {
				violations = append(violations, fmt.Sprintf(
					"%s: allocs/op grew %g -> %g",
					old.Name, oldAllocs, newAllocs))
			}
		}
	}
	return violations
}

// parse reads `go test -bench` text from r, echoing every line to echo
// (nil disables the echo) and collecting benchmark results and platform
// headers into a Doc.
func parse(r io.Reader, echo io.Writer) (Doc, error) {
	doc := Doc{Benchmarks: []Bench{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if echo != nil {
			fmt.Fprintln(echo, line)
		}
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		}
		if b, procs, ok := parseLine(line); ok {
			if len(doc.Benchmarks) == 0 || procs < doc.GOMAXPROCS {
				doc.GOMAXPROCS = procs
			}
			doc.Benchmarks = append(doc.Benchmarks, b)
		}
	}
	return doc, sc.Err()
}

// MarshalIndent renders the document as the archived JSON form, newline
// terminated.
func (d *Doc) MarshalIndent() ([]byte, error) {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// parseLine extracts one benchmark result and the GOMAXPROCS its name
// was printed under; ok is false for non-result lines.
func parseLine(line string) (b Bench, procs int, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Bench{}, 0, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Bench{}, 0, false
	}
	b = Bench{Iterations: iters, Metrics: map[string]float64{}}
	b.Name, procs = splitProcs(fields[0])
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Bench{}, 0, false
		}
		b.Metrics[fields[i+1]] = v
	}
	if len(b.Metrics) == 0 {
		return Bench{}, 0, false
	}
	return b, procs, true
}

// splitProcs splits the -GOMAXPROCS suffix Go appends to benchmark names
// off name (Benchmark/sub-8 -> Benchmark/sub, 8). At GOMAXPROCS 1 Go
// appends none, and a name without one is (name, 1). So on a single-CPU
// runner a sub-benchmark whose own name ends in "-<digits>" (e.g.
// "workers-8") would lose it here, collapse with its siblings and read as
// GOMAXPROCS 8; parameterized sub-benchmarks therefore use "=" in their
// names ("workers=8"), which survives in both forms. A run mixing such
// names with plain ones is still stamped 1: parse keeps the lowest.
func splitProcs(name string) (string, int) {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name, 1
	}
	n, err := strconv.Atoi(name[i+1:])
	if err != nil {
		return name, 1
	}
	return name[:i], n
}
