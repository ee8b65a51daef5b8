package core

import (
	"fmt"

	"pipeleon/internal/opt"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
)

// deployLocked is the one path from a plan to the device — construction's,
// a round's and an entry operation's; this file is the only one of the
// package that asks a target to deploy, commit or roll back, and the
// callers keep only their policy (deployNowLocked commits at once,
// OptimizeOnce judges a verification window first). It stages the
// program plan describes (empty: the original) and makes it current:
//
//  1. Materialize the plan through the session, which proves it; failing,
//     it sets report.Error.
//  2. Keep an unchanged layout, refreshing its counter map and plan.
//  3. Gate it; a refusal sets report.DeployError and report.Diagnostics.
//  4. Deploy it through CompareDeploy, on a sample of the guard's Sampler
//     when verify is set and the plan is not empty; a device refusal sets
//     report.DeployError.
//  5. Make it current, and set *unstage.
//
// *unstage is set as soon as the device holds the program, so a caller
// recovering from a panic finds it: it rolls the device back and restores
// the runtime's view, once. It stays nil when nothing was staged. The
// caller commits (commitLocked) or unstages.
func (r *Runtime) deployLocked(plan []*opt.Option, verify bool, report *RoundReport, unstage *func() error) (Comparison, error) {
	next, nextMap, nextPlan := r.orig, opt.NewCounterMap(), []*opt.Option(nil)
	var nextDigest p4ir.Digest
	if len(plan) > 0 {
		rw, err := r.search.Materialize(plan)
		if err != nil {
			report.Error = err.Error()
			return Comparison{}, err
		}
		next, nextMap, nextPlan, nextDigest = rw.Program, rw.Map, plan, rw.Digest
	} else {
		nextDigest = next.Digest()
	}
	if r.current != nil && nextDigest == r.currentDigestLocked() {
		if nextPlan != nil {
			r.setCurrentLocked(r.current, r.currentDigest, nextMap, nextPlan)
		}
		return Comparison{}, nil
	}
	// A program with Error diagnostics never reaches the device, whatever
	// the search promised.
	if !r.deployGate(next, nextDigest, report) {
		return Comparison{}, fmt.Errorf("core: deploy %s", report.DeployError)
	}
	// The target checkpoints the program itself (Deploy stages,
	// Commit/Rollback resolve it); the view's checkpoint is kept here.
	prevProg, prevDigest, prevMap, prevPlan := r.current, r.currentDigest, r.cmap, r.activePlan
	var sample []*packet.Packet
	if verify && r.guard != nil && r.guard.Sampler != nil && nextPlan != nil {
		sample = r.guard.Sampler(r.guard.VerifyPackets)
	}
	cmp, err := CompareDeploy(r.tgt, sample, func() error {
		if err := r.tgt.Deploy(next); err != nil {
			return err
		}
		// A materialized program is the runtime's alone (the session keeps
		// none, a target copies what Deploy is handed) and becomes current
		// as it is; r.orig may not: entry operations write both.
		if next == r.orig {
			next = r.orig.Clone()
		}
		r.setCurrentLocked(next, nextDigest, nextMap, nextPlan)
		*unstage = func() error {
			*unstage = nil
			if err := r.tgt.Rollback(); err != nil {
				return err
			}
			r.setCurrentLocked(prevProg, prevDigest, prevMap, prevPlan)
			return nil
		}
		return nil
	})
	if err != nil {
		report.DeployError = err.Error()
		return cmp, fmt.Errorf("core: deploy failed: %w", err)
	}
	return cmp, nil
}

// commitLocked makes the staged program the device's checkpoint.
func (r *Runtime) commitLocked() error { return r.tgt.Commit() }

// deployNowLocked deploys the program plan describes and commits it at
// once, with no verification window: construction's original, an entry
// operation's regenerated program. A plan that no longer materializes
// (e.g. entries changed shape) gives way to the original, and the next
// round re-optimizes. A failed commit puts the checkpoint back, so the
// device agrees with the view the error leaves in place.
func (r *Runtime) deployNowLocked(plan []*opt.Option) error {
	var report RoundReport
	var unstage func() error
	_, err := r.deployLocked(plan, false, &report, &unstage)
	if err != nil && report.Error != "" {
		_, err = r.deployLocked(nil, false, &report, &unstage)
	}
	if err != nil || unstage == nil {
		return err
	}
	if err := r.commitLocked(); err != nil {
		_ = unstage() // best effort: the commit error is the one to report
		return err
	}
	return nil
}

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
