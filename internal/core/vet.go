package core

import "pipeleon/internal/p4ir"

// deployGate asks the runtime's analysis.Gate — the check a control-plane
// server puts a staged program through — about a program about to be
// deployed, recording its diagnostics in the report. Error-severity ones
// refuse the deploy: it returns false and fills DeployError; warnings ride
// along. digest is next's, which the caller has computed to compare
// layouts: a layout the loop returns to is checked once, and a program
// Materialize just proved costs no second proof.
func (r *Runtime) deployGate(next *p4ir.Program, digest p4ir.Digest, report *RoundReport) bool {
	v := r.gate.Check(next, digest)
	if len(v.Diags) > 0 {
		report.Diagnostics = v.Diags.Strings()
	}
	if v.Refusal != "" {
		report.DeployError = "blocked by " + v.Refusal
		return false
	}
	return true
}
