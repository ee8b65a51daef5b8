package core

import (
	"slices"

	"pipeleon/internal/analysis"
	"pipeleon/internal/diag"
	"pipeleon/internal/p4ir"
)

// vet runs the full static-analysis gate over a program about to be
// deployed: the semantic lint under the target's cost-model parameters
// plus, when the candidate is not the original itself, the rewrite-safety
// proof that it preserves the original's dependency structure — asked of
// the search session's checker, which was built for the original once.
// With DeepVerify configured it additionally runs the symbolic tier: the
// value-range lints (warnings) and, for rewritten programs, the
// differential semantic-equivalence proof against the original, again by
// the session's checker, which has already proven any program Materialize
// returned.
func (r *Runtime) vet(next *p4ir.Program) diag.List {
	rewritten := next != r.orig
	diags := analysis.Lint(next, analysis.WithParams(r.pm))
	if rewritten {
		diags = append(diags, r.search.VerifyRewrite(next)...)
	}
	if r.cfg.DeepVerify {
		diags = append(diags, analysis.LintDeep(next)...)
		if rewritten {
			diags = append(diags, r.search.VerifySemantics(next)...)
		}
	}
	diags.Sort()
	return diags
}

// gateVerdict is what the gate concluded about one candidate program: the
// diagnostics its round report carries and, when any is Error-severity,
// the refusal. It holds strings only — never the program or its
// serialization, which would double the runtime's live heap.
type gateVerdict struct {
	diagnostics []string
	deployError string
}

// gateMemoCap bounds the gate's verdict memo. A loop under shifting
// traffic moves among a handful of layouts; the cap only stops a daemon
// from remembering every layout it ever considered.
const gateMemoCap = 256

// deployGate applies vet before a deploy, recording diagnostics in the
// report. The runtime refuses to deploy when any Error-severity diagnostic
// is present; warnings ride along in the round report. It returns false —
// and fills DeployError — when the program must not reach the device.
//
// Every check in vet is a deterministic function of the original program
// and the candidate, so the verdict is memoized under the candidate's
// digest (which the caller has computed to compare layouts) and a layout
// the loop returns to is vetted once; entryOp drops the memo whenever the
// original changes. A hit fills the report exactly as the fresh run did.
func (r *Runtime) deployGate(next *p4ir.Program, digest p4ir.Digest, report *RoundReport) bool {
	v, ok := r.gate.Get(digest)
	if !ok {
		diags := r.vet(next)
		if len(diags) > 0 {
			v.diagnostics = diags.Strings()
		}
		if diags.HasErrors() {
			v.deployError = "blocked by static analysis: " + diags.Errors()[0].String()
		}
		r.gate.Put(digest, v)
	}
	report.Diagnostics = slices.Clone(v.diagnostics)
	if v.deployError != "" {
		report.DeployError = v.deployError
		return false
	}
	return true
}
