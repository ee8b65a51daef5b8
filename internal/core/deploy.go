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
// callers keep only their policy (deployNowLocked commits at once, a round
// judges a verification window first). It stages the program plan
// describes (empty: the original) and makes it current:
//
//  1. Materialize the plan through the session, which proves it.
//  2. Keep an unchanged layout, refreshing its counter map and plan.
//  3. Gate it.
//  4. Deploy it through CompareDeploy, on a sample of the guard's Sampler
//     when verify is set and the plan is not empty.
//  5. Make it current, and checkpoint the view it replaced in r.staged.
//
// r.staged is set as soon as the device holds the program, so a round
// recovering from a panic finds it; it stays nil when nothing was staged.
// The caller commits (commitLocked) or unstages (unstageLocked). It returns
// the gate's findings, and a refusal when step 1, 3 or 4 failed.
func (r *Runtime) deployLocked(plan []*opt.Option, verify bool) (Comparison, []string, *refusal) {
	next, nextMap, nextPlan := r.orig, opt.NewCounterMap(), []*opt.Option(nil)
	var nextDigest p4ir.Digest
	if len(plan) > 0 {
		rw, err := r.search.Materialize(plan)
		if err != nil {
			return Comparison{}, nil, &refusal{materialize: true, detail: err.Error(), err: err}
		}
		next, nextMap, nextPlan, nextDigest = rw.Program, rw.Map, plan, rw.Digest
	} else {
		nextDigest = next.Digest()
	}
	if r.current != nil && nextDigest == r.currentDigestLocked() {
		if nextPlan != nil {
			r.setCurrentLocked(r.current, r.currentDigest, nextMap, nextPlan)
		}
		return Comparison{}, nil, nil
	}
	// A program with Error diagnostics never reaches the device, whatever
	// the search promised.
	diags, ref := r.deployGate(next, nextDigest)
	if ref != nil {
		return Comparison{}, diags, ref
	}
	// The target checkpoints the program itself (Deploy stages,
	// Commit/Rollback resolve it); the view's checkpoint is kept here.
	prev := &checkpoint{r.current, r.currentDigest, r.cmap, r.activePlan}
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
		r.staged = prev
		return nil
	})
	if err != nil {
		return cmp, diags, &refusal{detail: err.Error(), err: fmt.Errorf("core: deploy failed: %w", err)}
	}
	return cmp, diags, nil
}

// refusal is why deployLocked put nothing on the device: err is what the
// caller returns, detail the round report's line (in Error when the plan
// did not materialize, else in DeployError: the gate or the device).
type refusal struct {
	materialize bool
	detail      string
	err         error
}

// checkpoint is the view of the layout a staged program replaced.
type checkpoint struct {
	prog   *p4ir.Program
	digest p4ir.Digest
	cmap   *opt.CounterMap
	plan   []*opt.Option
}

// commitLocked makes the staged program the device's checkpoint.
func (r *Runtime) commitLocked() error {
	if err := r.tgt.Commit(); err != nil {
		return err
	}
	r.staged = nil
	return nil
}

// unstageLocked rolls the staged program back, on the device and in the
// view; the checkpoint is spent even when the rollback fails.
func (r *Runtime) unstageLocked() error {
	prev := r.staged
	r.staged = nil
	if err := r.tgt.Rollback(); err != nil {
		return err
	}
	r.setCurrentLocked(prev.prog, prev.digest, prev.cmap, prev.plan)
	return nil
}

// deployNowLocked deploys the program plan describes and commits it at
// once, with no verification window: construction's original, an entry
// operation's regenerated program. A plan that no longer materializes
// (e.g. entries changed shape) gives way to the original, and the next
// round re-optimizes. A failed commit puts the checkpoint back, so the
// device agrees with the view the error leaves in place.
func (r *Runtime) deployNowLocked(plan []*opt.Option) error {
	_, _, ref := r.deployLocked(plan, false)
	if ref != nil && ref.materialize {
		_, _, ref = r.deployLocked(nil, false)
	}
	switch {
	case ref != nil:
		return ref.err
	case r.staged == nil:
		return nil
	}
	if err := r.commitLocked(); err != nil {
		_ = r.unstageLocked() // best effort: the commit error is the one to report
		return err
	}
	return nil
}

// deployGate asks the runtime's analysis.Gate — the check a control-plane
// server puts a staged program through — about a program about to be
// deployed. It returns the findings, and a refusal when one of them is an
// Error; warnings ride along. digest is next's, which the caller has
// computed to compare layouts: a layout the loop returns to is checked
// once, and a program Materialize just proved costs no second proof.
func (r *Runtime) deployGate(next *p4ir.Program, digest p4ir.Digest) ([]string, *refusal) {
	v := r.gate.Check(next, digest)
	var diags []string
	if len(v.Diags) > 0 {
		diags = v.Diags.Strings()
	}
	if v.Refusal == "" {
		return diags, nil
	}
	return diags, &refusal{detail: "blocked by " + v.Refusal, err: fmt.Errorf("core: deploy blocked by %s", v.Refusal)}
}
