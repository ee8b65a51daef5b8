// Command p4lint runs the internal/analysis static analyzer over P4
// programs offline — the same rule set the runtime applies before any
// deploy, exposed as a standalone checker for CI and development.
//
// Usage:
//
//	p4lint [-target bluefield2|agiliocx|emulated] [-deep] [-json]
//	    [-warn-as-error] prog.json prog2.p4 trace.json ...
//
// Inputs may be BMv2-style program JSON, .p4 source (compiled with the
// internal frontend), or recorded replay traces (the embedded program is
// linted). -deep adds the symbolic tier: the abstract interpreter's
// value-range rules (PL2xx) on top of the structural lint. Each
// diagnostic prints as
//
//	file: CODE severity node(field): message
//
// or, with -json, as one JSON document over all files on stdout.
//
// Exit status is tiered: 0 when every file is clean, 1 when the worst
// finding is a warning, 2 when any Error-severity diagnostic was
// reported (with -warn-as-error, warnings also exit 2), and 3 on usage
// or I/O errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"pipeleon/internal/analysis"
	"pipeleon/internal/costmodel"
	"pipeleon/internal/diag"
	"pipeleon/internal/p4c"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/target"
)

// fileReport is the per-file element of the -json document.
type fileReport struct {
	File     string    `json:"file"`
	Diags    diag.List `json:"diags"`
	Errors   int       `json:"errors"`
	Warnings int       `json:"warnings"`
}

func main() {
	var (
		targetName  = flag.String("target", "", "cost model target enabling memory-tier rules: bluefield2|agiliocx|emulated (default: none, or a trace's recorded model)")
		deep        = flag.Bool("deep", false, "run the symbolic tier too (abstract-interpretation value-range rules, PL2xx)")
		jsonOut     = flag.Bool("json", false, "emit one JSON document over all files instead of text lines")
		warnAsError = flag.Bool("warn-as-error", false, "treat warnings as errors for the exit status")
		quiet       = flag.Bool("q", false, "suppress per-file ok lines")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: p4lint [-target name] [-deep] [-json] [-warn-as-error] file.json|file.p4|trace.json ...")
		os.Exit(3)
	}
	var reports []fileReport
	worst := 0 // 0 clean, 1 warnings, 2 errors
	for _, path := range flag.Args() {
		prog, pm, hasPM, err := load(path, *targetName)
		if err != nil {
			fmt.Fprintf(os.Stderr, "p4lint: %s: %v\n", path, err)
			os.Exit(3)
		}
		var opts []analysis.Option
		if hasPM {
			opts = append(opts, analysis.WithParams(pm))
		}
		diags := analysis.Lint(prog, opts...)
		if *deep {
			diags = append(diags, analysis.LintDeep(prog)...)
			diags.Sort()
		}
		nerr := len(diags.Errors())
		rep := fileReport{File: path, Diags: diags, Errors: nerr, Warnings: len(diags) - nerr}
		reports = append(reports, rep)
		switch {
		case nerr > 0 || (*warnAsError && len(diags) > 0):
			worst = 2
		case len(diags) > 0 && worst < 1:
			worst = 1
		}
		if *jsonOut {
			continue
		}
		for _, d := range diags {
			fmt.Printf("%s: %s\n", path, d)
		}
		if nerr == 0 && !*quiet {
			fmt.Printf("%s: ok (%d warning(s))\n", path, len(diags))
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			fmt.Fprintf(os.Stderr, "p4lint: encoding report: %v\n", err)
			os.Exit(3)
		}
	}
	os.Exit(worst)
}

// load resolves one CLI argument into a program and (optionally) the
// cost-model parameters to lint it under.
func load(path, targetName string) (*p4ir.Program, costmodel.Params, bool, error) {
	pm, hasPM := costmodel.ByName(targetName)
	if !hasPM && targetName != "" {
		return nil, pm, false, fmt.Errorf("unknown target %q", targetName)
	}
	// A replay trace is JSON too; try it first so its embedded program and
	// recorded cost model are used.
	if trace, err := target.LoadTrace(path); err == nil {
		if prog, perr := trace.EmbeddedProgram(); perr == nil && prog != nil {
			if !hasPM {
				pm, hasPM = trace.Capabilities.Params, true
			}
			return prog, pm, hasPM, nil
		}
	}
	prog, err := p4c.LoadFile(path)
	if err != nil {
		return nil, pm, false, err
	}
	return prog, pm, hasPM, nil
}
