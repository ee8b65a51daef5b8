package core

import (
	"fmt"
	"strings"
	"time"

	"pipeleon/internal/faultinject"
	"pipeleon/internal/opt"
	"pipeleon/internal/profile"
)

// outcome is how a round ended: one value per exit of OptimizeOnce.
type outcome int

const (
	running          outcome = iota // no stage has ended the round yet
	lostWindow                      // the profile window could not be read
	breakerOpen                     // the circuit breaker pauses redeployment
	unchanged                       // no cost moved past profileChangeThreshold
	searchFailed                    // the search answered an error
	blacklisted                     // a recent rollback bars the plan
	keptByHysteresis                // the plan does not beat the active one by RedeployMargin
	sameLayout                      // the plan's program is the deployed one
	refused                         // no materialized program, or the gate or the device refused it
	rolledBack                      // the verification window contradicted the deploy
	rollbackFailed                  // it did, and the rollback failed
	commitFailed                    // the device did not commit the staged program
	committed                       // the new program is the device's checkpoint
	panicked                        // a stage panicked
)

// ends is out when cond holds, else running.
func ends(cond bool, out outcome) outcome {
	if cond {
		return out
	}
	return running
}

// round is one pass of the loop: the report its stages fill, and what one
// stage found for the next.
type round struct {
	report   RoundReport
	window   time.Duration
	prof     *profile.Profile // the window, translated to the original's tables
	plan     []*opt.Option
	planKey  string // the plan as the blacklist knows it
	deployed bool   // the deploy stage put a new program on the device
	cmp      Comparison
	refusal  *refusal
	cause    error // why the round ended short of a commit, refusals aside
}

// roundStages are a round's stages in order (DESIGN.md, "The round"),
// run under r.mu. Each ends the round with an outcome or hands it on; the
// commit stage always ends it.
var roundStages = [...]func(*Runtime, *round) outcome{
	(*Runtime).collectStage, (*Runtime).breakerStage, (*Runtime).changeStage,
	(*Runtime).searchStage, (*Runtime).blacklistStage, (*Runtime).hysteresisStage,
	(*Runtime).deployStage, (*Runtime).judgeStage, (*Runtime).commitStage,
}

// OptimizeOnce runs one optimization round over the profile collected in
// the last window of the given duration (used to turn update counts into
// rates). It snapshots and resets the collector, so each round sees only
// the most recent window — "Pipeleon constantly monitors the profile; when
// it varies, a new round of optimization will be triggered".
//
// Every round — including failed ones — is recorded in History, so a
// deploy error or rollback is observable and the caller's loop can continue.
// When a DeployGuard is installed, deployment is transactional: the
// previous program and counter map are checkpointed, a verification
// window compares measured latency against the plan's prediction, and a
// contradicted deploy is rolled back and its plan blacklisted.
// A panic under it (search, rewrite, gate, a target call) costs the round,
// not the loop: recorded with Error, counted toward the breaker as a failed
// deploy, and a program staged but not committed is rolled back.
func (r *Runtime) OptimizeOnce(window time.Duration) (report RoundReport, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.round++
	rd := &round{window: window, report: RoundReport{Round: r.round, HitRateFeedback: map[string]float64{}}}
	defer func() {
		if p := recover(); p != nil {
			rd.cause = fmt.Errorf("%v", p)
			report, err = r.finishLocked(rd, panicked)
		}
	}()
	out := running
	for _, stage := range roundStages {
		if out = stage(r, rd); out != running {
			break
		}
	}
	return r.finishLocked(rd, out)
}

// collectStage reads and resets the profile window and translates it to
// the original program.
func (r *Runtime) collectStage(rd *round) outcome {
	optProf, err := r.tgt.Profile(true)
	if err != nil {
		// The window is lost (e.g. the remote device is unreachable). Record
		// the round and let the next window retry.
		rd.cause = err
		return lostWindow
	}
	if optProf == nil {
		optProf = profile.New()
	}

	// Entry-update rates: delta of data-plane update counts over the
	// window, attributed to original table names via the API mapping's
	// own accounting (updCountsOrig).
	secs := rd.window.Seconds()
	if secs <= 0 {
		secs = 1
	}
	for table, cnt := range r.updCountsOrig {
		delta := cnt - r.lastUpdCountsOrig[table]
		optProf.UpdateRates[table] = float64(delta) / secs
		r.lastUpdCountsOrig[table] = cnt
	}

	// Hit-rate feedback: observed rates of deployed caches override the
	// default estimate for the same span next round. Best-effort: a
	// backend without cache visibility just skips the feedback.
	caches, _ := r.tgt.CacheStats()
	for _, cs := range caches {
		if spec, ok := r.current.Tables[cs.Table]; ok {
			if meta, isCache := spec.CacheMeta(); isCache {
				if rate, any := cs.HitRate(); any {
					key := opt.SpanKey(meta.Covers)
					r.cfg.HitRateOverride[key] = rate
					rd.report.HitRateFeedback[key] = rate
				}
			}
		}
	}

	// Translate counters to the original program.
	rd.prof = r.cmap.Translate(optProf, r.orig)
	// Update rates were keyed by original names already.
	for t, rate := range optProf.UpdateRates {
		rd.prof.UpdateRates[t] = rate
	}
	return running
}

// breakerStage pauses redeployment, while profiling goes on, until the
// circuit breaker's cooldown expires.
func (r *Runtime) breakerStage(*round) outcome {
	return ends(r.round <= r.breakerOpenUntil, breakerOpen)
}

// profileChangeThreshold is the relative change in any pipelet's weighted
// cost that triggers a new optimization round; below it the runtime skips
// the search entirely ("Pipeleon constantly monitors the profile; when it
// varies, a new round of optimization will be triggered", §2.3).
const profileChangeThreshold float64 = 0.05

// changeStage (§2.3) re-optimizes only when the profile signature moved
// materially since the last round. A threshold of 0 disables skipping.
func (r *Runtime) changeStage(rd *round) outcome {
	costs, last, threshold := r.profileSignature(rd.prof), r.lastCosts, r.changeThreshold
	r.lastCosts = costs
	return ends(threshold > 0 && last != nil && !costsChanged(last, costs, threshold), unchanged)
}

// searchStage runs the warm search. It, the blacklist and the hysteresis
// read only the plan and its gain, so a round they end never clones,
// rewrites or proves a program.
func (r *Runtime) searchStage(rd *round) outcome {
	res, err := r.search.Search(rd.prof)
	// Optimizer faults: a failed search, or an inflated predicted gain
	// the verification window must catch, not believe.
	d := faultinject.At(r.faults, faultinject.PointPlan)
	if err == nil && d.Fail {
		err = d.Error()
	}
	if err != nil {
		rd.cause = err
		return searchFailed
	}
	rep := &rd.report
	rep.SearchTime, rep.BaselineLatency, rep.Gain, rep.PlanSize = res.Elapsed, res.BaselineLatency, res.Gain, len(res.Plan)
	for _, o := range res.Plan {
		rep.Plan = append(rep.Plan, o.String())
	}
	if d.Scale > 0 {
		rep.Gain *= d.Scale
	}
	rd.plan, rd.planKey = res.Plan, strings.Join(rep.Plan, ";")
	return running
}

// blacklistStage withholds a plan a recent rollback barred, sweeping its
// entry once expired.
func (r *Runtime) blacklistStage(rd *round) outcome {
	exp, barred := r.blacklist[rd.planKey]
	if barred && r.round > exp {
		delete(r.blacklist, rd.planKey)
		barred = false
	}
	return ends(barred, blacklisted)
}

// hysteresisStage keeps the deployed layout and its warm caches unless the
// new plan beats the active plan, re-scored under the fresh profile, by
// RedeployMargin.
func (r *Runtime) hysteresisStage(rd *round) outcome {
	if len(r.activePlan) == 0 || len(rd.plan) == 0 {
		return running
	}
	cur := r.search.ReScore(rd.prof, r.activePlan)
	rd.report.ActivePlanGain = cur
	return ends(cur > 0 && rd.report.Gain < cur*(1+r.cfg.RedeployMargin), keptByHysteresis)
}

// deployStage puts the plan's program (an empty plan: the original) on the
// device through deployLocked, measured on a verification sample.
func (r *Runtime) deployStage(rd *round) outcome {
	rd.cmp, rd.report.Diagnostics, rd.refusal = r.deployLocked(rd.plan, true)
	if rd.refusal != nil {
		return refused
	}
	rd.deployed = r.staged != nil
	return ends(!rd.deployed, sameLayout)
}

// judgeStage holds a verified deploy to its prediction and rolls a
// contradicted one back. The pre-deploy measurement ran on the deployed
// (possibly already optimized) program, so the prediction is the plan's
// gain over the active plan: judged against the sum of both improvements,
// a better plan replacing a good one would be rolled back spuriously.
func (r *Runtime) judgeStage(rd *round) outcome {
	if !rd.cmp.Verified {
		return running
	}
	predicted := rd.report.Gain
	if rd.report.ActivePlanGain > 0 {
		predicted -= rd.report.ActivePlanGain
	}
	rd.report.VerifyDelta, rd.cause = rd.cmp.Judge(r.guard.MaxRegression, r.guard.MinRealizedGainFrac, predicted)
	if rd.cause == nil {
		return running
	}
	if err := r.unstageLocked(); err != nil {
		// Device wedged between two programs: the breaker is the only
		// remaining backstop.
		rd.cause = err
		return rollbackFailed
	}
	return rolledBack
}

// commitStage makes the staged program the device's checkpoint.
func (r *Runtime) commitStage(rd *round) outcome {
	if rd.cause = r.commitLocked(); rd.cause != nil {
		return commitFailed
	}
	return committed
}

// finishLocked ends the round on out, the one place round policy lives
// (archlint one-exit). It alone sets the report's outcome fields (Deployed,
// SkippedUnchanged, RolledBack, PlanBlacklisted, BreakerOpen, Error,
// DeployError), charges the breaker, blacklists, forces the next round to
// re-evaluate, ends a failure streak, unstages a program still staged and
// records the round. It returns what OptimizeOnce returns.
func (r *Runtime) finishLocked(rd *round, out outcome) (RoundReport, error) {
	rep, cause := &rd.report, rd.cause
	var err error
	failed := false // a deploy failed or was undone: charged to the breaker
	switch out {
	case lostWindow:
		rep.Error, err = cause.Error(), fmt.Errorf("core: profile window: %w", cause)
	case breakerOpen:
		rep.BreakerOpen = true
	case unchanged:
		rep.SkippedUnchanged = true
	case searchFailed:
		rep.Error, err = cause.Error(), cause
	case blacklisted:
		rep.PlanBlacklisted = true
	case refused:
		// A plan that did not materialize met neither the gate nor the
		// device: the round failed, no deploy did.
		if err = rd.refusal.err; rd.refusal.materialize {
			rep.Error = rd.refusal.detail
		} else {
			rep.DeployError, failed = rd.refusal.detail, true
		}
	case rolledBack:
		rep.RolledBack, failed = true, true
		if rd.cmp.PostErr != nil { // the deploy could not be confirmed
			rep.DeployError = cause.Error()
		}
		r.blacklistLocked(rd.planKey)
	case rollbackFailed:
		rep.DeployError, err, failed = "rollback failed: "+cause.Error(), fmt.Errorf("core: rollback failed: %w", cause), true
	case commitFailed:
		rep.DeployError, err, failed = "commit failed: "+cause.Error(), fmt.Errorf("core: commit failed: %w", cause), true
	case committed:
		r.consecFailures = 0
	case panicked:
		rep.Error, err, failed = "panic: "+cause.Error(), fmt.Errorf("core: round panicked: %w", cause), true
	}
	// A panic or a failed commit left a program staged: the device took
	// it, so the round deployed; put the checkpoint back, so the device
	// agrees with the view.
	rep.Deployed = rd.deployed || r.staged != nil
	if r.staged != nil {
		if uerr := r.unstageLocked(); uerr == nil {
			rep.RolledBack = true
		} else {
			rep.DeployError = strings.TrimPrefix(rep.DeployError+"; rollback failed: "+uerr.Error(), "; ")
		}
	}
	if failed {
		r.noteDeployFailureLocked()
	}
	// The next round re-evaluates whatever the profile does: a failed
	// deploy, search or materialization must not hide behind the
	// unchanged-profile skip, a withheld plan is reconsidered once its
	// blacklisting expires, and the breaker's cooldown ends in a full
	// re-evaluation.
	if failed || out == searchFailed || out == refused || out == blacklisted || out == breakerOpen {
		r.lastCosts = nil
	}
	r.recordLocked(*rep)
	return *rep, err
}
