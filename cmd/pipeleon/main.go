// Command pipeleon is the source-to-source optimizer CLI: it reads a P4
// program in the BMv2-style JSON IR, optionally a runtime profile, runs one
// Pipeleon optimization round, and writes the optimized program JSON —
// exactly the paper's workflow ("takes the intermediate file generated by
// the P4 compiler as input, converts it to a graph-based IR, transforms
// the graph using the proposed optimizations, and finally converts the
// optimized graph back to the intermediate file", §5.1).
//
// Usage:
//
//	pipeleon -in prog.json -out prog.opt.json [-profile prof.json]
//	    [-trace trace.json] [-target bluefield2|agiliocx|emulated]
//	    [-topk 0.2] [-mem-budget bytes] [-update-budget ops] [-no-cache]
//	    [-no-merge] [-no-reorder] [-dot out.dot] [-deep] [-v]
//	pipeleon -check [-deep] [-json] [-target name] file.p4|prog.json|trace.json ...
//
// With -check, pipeleon is the offline static analyzer (internal/analysis,
// the rules every deploy passes). It lints -in, -trace and each file
// argument under the one target rule: -target, else the trace's recorded
// model, else BlueField2. -deep adds the symbolic PL2xx tier, -json prints
// one document over all files. Exit status: 0 clean, 1 warnings, 2 errors,
// 3 a load or usage error.
//
// Optimized output always passes the same analyzer — the searcher
// discards any candidate whose rewrite cannot be proven safe — and with
// -deep every candidate must additionally pass the semantic-equivalence
// proof (a deep analysis.Verifier via opt.Config.DeepVerify).
//
// With -trace, a trace recorded by cmd/tracegen (target.Trace) supplies
// its last profile window, the cost-model parameters, and — when -in is
// omitted — the embedded program, so a device session captured once can
// be re-optimized offline under different knobs.
//
// Without a profile, uniform action/branch probabilities are assumed (the
// compile-time-only baseline the paper argues is insufficient — expect
// weaker plans than with a real profile).
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"pipeleon/internal/analysis"
	"pipeleon/internal/costmodel"
	"pipeleon/internal/diag"
	"pipeleon/internal/opt"
	"pipeleon/internal/p4c"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/pprofutil"
	"pipeleon/internal/profile"
	"pipeleon/internal/target"
)

func main() {
	var (
		inPath     = flag.String("in", "", "input program: BMv2-style JSON or .p4 source (required)")
		outPath    = flag.String("out", "", "output optimized program JSON (default: stdout)")
		profPath   = flag.String("profile", "", "runtime profile JSON (optional)")
		tracePath  = flag.String("trace", "", "trace JSON written by tracegen: takes the last profile window, the cost model, and (when -in is omitted) the program of a recorded device session")
		targetName = flag.String("target", "", "cost model target: bluefield2|agiliocx|emulated (default bluefield2, or the trace's recorded model)")
		topk       = flag.Float64("topk", 1.0, "fraction of pipelets to optimize (1 = exhaustive)")
		memBudget  = flag.Int("mem-budget", 0, "extra memory budget in bytes (0 = unconstrained)")
		updBudget  = flag.Float64("update-budget", 0, "entry-update budget in ops/s (0 = unconstrained)")
		noCache    = flag.Bool("no-cache", false, "disable table caching")
		noMerge    = flag.Bool("no-merge", false, "disable table merging")
		noReorder  = flag.Bool("no-reorder", false, "disable table reordering")
		mergeCap   = flag.Int("merge-cap", 2, "max tables per merge")
		check      = flag.Bool("check", false, "lint -in, -trace and every file argument (.p4, program JSON, or trace) and exit without optimizing: 0 clean, 1 warnings, 2 errors, 3 load or usage error")
		jsonOut    = flag.Bool("json", false, "with -check, print one JSON document over all files instead of text lines")
		deep       = flag.Bool("deep", false, "with -check, add the symbolic tier (PL2xx value-range rules); when optimizing, gate every candidate behind the semantic-equivalence proof (opt.Config.DeepVerify)")
		dotPath    = flag.String("dot", "", "also write the optimized graph as Graphviz DOT")
		verbose    = flag.Bool("v", false, "print the plan and estimated gain")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if *check {
		files := slices.DeleteFunc(append([]string{*inPath, *tracePath}, flag.Args()...), func(f string) bool { return f == "" })
		os.Exit(lintFiles(files, *targetName, *deep, *jsonOut, os.Stdout, os.Stderr))
	}
	if *inPath == "" && *tracePath == "" {
		flag.Usage()
		os.Exit(2)
	}
	prog, trace, err := loadInput(cmp.Or(*inPath, *tracePath))
	if err == nil && *inPath != "" && *tracePath != "" {
		trace, err = target.LoadTrace(*tracePath)
	}
	if err != nil {
		fatal("%v", err)
	}
	stopCPU, err := pprofutil.StartCPU(*cpuProf)
	if err != nil {
		fatal("%v", err)
	}
	defer stopCPU()
	defer func() {
		if err := pprofutil.WriteHeap(*memProf); err != nil {
			fatal("%v", err)
		}
	}()
	prof := profile.New()
	switch {
	case *profPath != "":
		data, err := os.ReadFile(*profPath)
		if err != nil {
			fatal("loading profile: %v", err)
		}
		if err := json.Unmarshal(data, prof); err != nil {
			fatal("parsing profile: %v", err)
		}
	case trace != nil && len(trace.Profiles) > 0:
		// The last recorded window reflects the workload the device
		// converged on.
		prof = trace.Profiles[len(trace.Profiles)-1]
	}
	pm, err := params(*targetName, trace)
	if err != nil {
		fatal("%v", err)
	}

	cfg := opt.DefaultConfig()
	cfg.TopKFrac = *topk
	cfg.MemoryBudget = *memBudget
	cfg.UpdateBudget = *updBudget
	cfg.EnableCache = !*noCache
	cfg.EnableMerge = !*noMerge
	cfg.EnableReorder = !*noReorder
	cfg.MergeCap = *mergeCap
	cfg.DeepVerify = *deep

	sess, err := opt.NewSession(prog, pm, cfg)
	if err != nil {
		fatal("optimizing: %v", err)
	}
	res, rw, err := sess.SearchAndApply(prof)
	if err != nil {
		fatal("optimizing: %v", err)
	}
	out := prog
	if rw != nil {
		out = rw.Program
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "baseline latency: %.1f ns (model)\n", res.BaselineLatency)
		fmt.Fprintf(os.Stderr, "estimated gain:   %.1f ns (%.1f%%)\n", res.Gain,
			pct(res.Gain, res.BaselineLatency))
		fmt.Fprintf(os.Stderr, "search time:      %s (%d candidates, %d units)\n",
			res.Elapsed, res.CandidatesEvaluated, len(res.Units))
		for _, o := range res.Plan {
			fmt.Fprintf(os.Stderr, "  plan: %s (gain %.1f ns, mem %d B, upd %.0f/s)\n",
				o, o.Gain, o.MemCost, o.UpdateCost)
		}
		if rw == nil {
			fmt.Fprintln(os.Stderr, "no profitable transformation found; emitting input unchanged")
		}
	}
	data, err := out.MarshalJSON()
	if err != nil {
		fatal("encoding: %v", err)
	}
	if *outPath == "" {
		fmt.Println(string(data))
	} else if err := os.WriteFile(*outPath, data, 0o644); err != nil {
		fatal("writing output: %v", err)
	}
	if *dotPath != "" {
		if err := os.WriteFile(*dotPath, []byte(out.Graphviz()), 0o644); err != nil {
			fatal("writing dot: %v", err)
		}
	}
}

// fileReport is one file's element of the -check -json document.
type fileReport struct {
	File     string    `json:"file"`
	Model    string    `json:"model"`
	Diags    diag.List `json:"diags"`
	Errors   int       `json:"errors"`
	Warnings int       `json:"warnings"`
}

// lintFiles is -check: it lints each file under the model params resolves
// for it and returns the exit status. Diagnostics (or, with jsonOut, one
// document over all files) go to stdout; "ok" lines and errors to stderr.
func lintFiles(files []string, targetName string, deep, jsonOut bool, stdout, stderr io.Writer) int {
	if len(files) == 0 {
		fmt.Fprintln(stderr, "usage: pipeleon -check [-deep] [-json] [-target name] [-in file] file.p4|prog.json|trace.json ...")
		return 3
	}
	var reports []fileReport
	worst := 0
	for _, path := range files {
		prog, trace, err := loadInput(path)
		pm, perr := params(targetName, trace)
		if err = cmp.Or(err, perr); err != nil {
			fmt.Fprintf(stderr, "pipeleon: %s: %v\n", path, err)
			return 3
		}
		// The loader checked prog: the lint rules judge it as the target's
		// deploy gate would, and the deep tier trusts it too.
		diags := analysis.NewGate(pm, nil).Check(prog, prog.Digest()).Diags
		if deep {
			diags = append(slices.Clip(diags), analysis.LintDeep(prog)...)
			diags.Sort()
		}
		nerr := len(diags.Errors())
		reports = append(reports, fileReport{File: path, Model: pm.Name, Diags: diags, Errors: nerr, Warnings: len(diags) - nerr})
		switch {
		case nerr > 0:
			worst = 2
		case len(diags) > 0:
			worst = max(worst, 1)
		}
		if jsonOut {
			continue
		}
		for _, d := range diags {
			fmt.Fprintf(stdout, "%s: %s\n", path, d)
		}
		if nerr == 0 {
			fmt.Fprintf(stderr, "%s: ok (%d warning(s))\n", path, len(diags))
		}
	}
	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			fmt.Fprintf(stderr, "pipeleon: encoding report: %v\n", err)
			return 3
		}
	}
	return worst
}

// loadInput reads one checked file. A trace (JSON that records the
// device's capabilities) yields its embedded program and itself; a trace
// whose program is missing or does not decode is an error, never a second
// reading of the file as a program. Anything else is .p4 source or
// program JSON.
func loadInput(path string) (*p4ir.Program, *target.Trace, error) {
	if trace, err := target.LoadTrace(path); err == nil && (trace.Capabilities.Model != "" || len(trace.Program) > 0) {
		prog, err := trace.EmbeddedProgram()
		if err != nil {
			return nil, nil, fmt.Errorf("decoding trace program: %w", err)
		}
		if prog == nil {
			return nil, nil, fmt.Errorf("trace %q has no embedded program", trace.Name)
		}
		return prog, trace, nil
	}
	prog, err := p4c.LoadFile(path)
	return prog, nil, err
}

// params is pipeleon's one target rule: -target, else the trace's recorded
// model, else BlueField2.
func params(targetName string, trace *target.Trace) (costmodel.Params, error) {
	switch {
	case targetName != "":
		pm, ok := costmodel.ByName(targetName)
		if !ok {
			return pm, fmt.Errorf("unknown target %q", targetName)
		}
		return pm, nil
	case trace != nil:
		return trace.Capabilities.Params, nil
	}
	return costmodel.BlueField2(), nil
}

func pct(gain, base float64) float64 {
	if base <= 0 {
		return 0
	}
	return gain / base * 100
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "pipeleon: "+format+"\n", args...)
	os.Exit(1)
}
