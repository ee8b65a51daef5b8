package core

import (
	"pipeleon/internal/analysis"
	"pipeleon/internal/costmodel"
	"pipeleon/internal/diag"
	"pipeleon/internal/p4ir"
)

// vetProgram runs the full static-analysis gate over a program about to be
// deployed: the semantic lint under the target's cost-model parameters
// plus, when the candidate differs from the original, the rewrite-safety
// proof that it preserves the original's dependency structure. The runtime
// refuses to deploy when any Error-severity diagnostic is present;
// warnings ride along in the round report.
func vetProgram(orig, next *p4ir.Program, pm costmodel.Params) diag.List {
	l := analysis.Lint(next, analysis.WithParams(pm))
	if next != orig {
		l = append(l, analysis.VerifyRewrite(orig, next)...)
	}
	l.Sort()
	return l
}

// deployGate applies vetProgram before a deploy, recording diagnostics in
// the report. With DeepVerify configured it additionally runs the
// symbolic tier: the value-range lints (warnings) and, for rewritten
// programs, the differential semantic-equivalence proof against the
// original (errors block the deploy) — asked of the search session's
// checker, which has already proven any program SearchAndApply returned.
// It returns false — and fills DeployError — when the program must not
// reach the device.
func (r *Runtime) deployGate(next *p4ir.Program, report *RoundReport) bool {
	diags := vetProgram(r.orig, next, r.pm)
	if r.cfg.DeepVerify {
		diags = append(diags, analysis.LintDeep(next)...)
		if next != r.orig {
			diags = append(diags, r.search.VerifySemantics(next)...)
		}
		diags.Sort()
	}
	if len(diags) > 0 {
		report.Diagnostics = diags.Strings()
	}
	if diags.HasErrors() {
		report.DeployError = "blocked by static analysis: " + diags.Errors()[0].String()
		return false
	}
	return true
}
