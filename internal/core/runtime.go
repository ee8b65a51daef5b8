// Package core implements the Pipeleon runtime (§2.3, Figure 3): it
// instruments a P4 program with counters, collects runtime profiles from
// the target in windows, translates counters from the optimized layout
// back to the original program through the counter map, detects the top-k
// hot pipelets, searches for the best optimization plan, deploys the
// rewritten program to the SmartNIC, and keeps the same program-management
// APIs working by mapping entry operations onto the optimized layout.
//
// The loop is feedback-driven: observed cache hit rates and entry-update
// rates flow into the next round's cost estimates, so an optimization that
// stops paying off (a cache invalidated by a burst of insertions, a merge
// whose tables started churning) is removed or replaced on the next round
// — the §3.2.2/§3.2.3 "monitors its actual performance at runtime"
// behaviour that drives Figure 11.
package core

import (
	"fmt"
	"maps"
	"strings"
	"sync"
	"time"

	"pipeleon/internal/analysis"
	"pipeleon/internal/costmodel"
	"pipeleon/internal/faultinject"
	"pipeleon/internal/opt"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/profile"
	"pipeleon/internal/target"
)

// Runtime is one Pipeleon control loop bound to a deployment target. The
// target may be the in-process emulator, a remote nicd, or a recorded
// trace — the loop is backend-agnostic (see internal/target).
type Runtime struct {
	mu sync.Mutex

	orig *p4ir.Program
	tgt  target.Target
	pm   costmodel.Params
	cfg  opt.Config

	// The deployed layout. The four move together, through setCurrentLocked
	// only; currentDigest is current.Digest(), or zero when an entry
	// operation edited current in place and the next round has to recompute
	// it (currentDigestLocked).
	current       *p4ir.Program
	currentDigest p4ir.Digest
	cmap          *opt.CounterMap
	activePlan    []*opt.Option

	// search is the warm optimizer session: it keeps the pipelet
	// partition, dependency analysis, cost-view arrays, candidate skeletons
	// and verdict memos alive across rounds, so a round re-prices what the
	// profile moved and re-derives nothing of the program.
	search *opt.Session

	// updCountsOrig accumulates entry-update operations keyed by
	// original-program table names (through the API mapping).
	updCountsOrig     map[string]uint64
	lastUpdCountsOrig map[string]uint64

	round int
	// history is a ring of the last historyCap reports (historyNext is the
	// oldest once full); tally holds the counters of every report ever
	// recorded, so Status reads no history and a daemon's memory does not
	// grow with its rounds.
	history     []RoundReport
	historyNext int
	tally       RuntimeStatus
	lastCosts   map[string]float64

	// gate is the check every program passes before it reaches the device
	// (see deploy.go), built over search's verifier; it keys its verdicts by
	// the original's entry version, which every entry operation moves.
	gate *analysis.Gate

	// Fault tolerance (see guard.go): transactional deploys with
	// verify-and-rollback, plan blacklisting, and a redeploy circuit
	// breaker. All nil/zero when no guard is installed.
	guard            *DeployGuard
	faults           faultinject.Injector
	blacklist        map[string]int // plan key -> last blacklisted round
	consecFailures   int
	breakerOpenUntil int
}

// RoundReport summarizes one optimization round.
type RoundReport struct {
	Round int
	// Deployed is true when a new program was swapped in.
	Deployed bool
	// PlanSize is the number of options in the chosen plan.
	PlanSize int
	// Gain is the plan's estimated latency reduction (ns).
	Gain float64
	// ActivePlanGain is the re-scored gain of the already-deployed plan
	// under this round's profile (0 when none was active).
	ActivePlanGain float64
	// BaselineLatency is the modeled latency of the original program
	// under this round's profile.
	BaselineLatency float64
	// SearchTime is the wall-clock optimization time.
	SearchTime time.Duration
	// Plan describes the chosen options.
	Plan []string
	// HitRateFeedback lists span -> observed hit rate fed into estimates.
	HitRateFeedback map[string]float64
	// SkippedUnchanged is true when the round was skipped because no
	// pipelet's cost moved past Options.ProfileChangeThreshold.
	SkippedUnchanged bool
	// Error records a search/collection failure; the loop continues and
	// the round is still part of History.
	Error string
	// DeployError records a failed program swap (or failed rollback).
	DeployError string
	// RolledBack is true when the verification window contradicted the
	// plan's prediction and the checkpointed program was restored.
	RolledBack bool
	// VerifyDelta is the measured relative mean-latency change across
	// the deploy ((post-pre)/pre); only meaningful when a DeployGuard
	// with a Sampler verified the round.
	VerifyDelta float64
	// PlanBlacklisted is true when the chosen plan was withheld because
	// a recent rollback blacklisted it.
	PlanBlacklisted bool
	// BreakerOpen is true when the circuit breaker paused redeployment
	// for this round.
	BreakerOpen bool
	// Diagnostics holds the static-analysis findings for the candidate
	// program of this round (internal/analysis). Error-severity findings
	// block the deploy (DeployError says so); warnings are informational.
	Diagnostics []string
}

// NewRuntime builds a runtime for the given original program, deploying it
// unmodified to the target. Cost-model parameters come from the target's
// capabilities, so the optimizer always models the device it is driving.
func NewRuntime(orig *p4ir.Program, tgt target.Target, cfg opt.Config) (*Runtime, error) {
	if err := orig.Validate(); err != nil {
		return nil, err
	}
	// The runtime writes observed hit rates into its own copy: two runtimes
	// built from one Config must not read each other's feedback.
	cfg.HitRateOverride = maps.Clone(cfg.HitRateOverride)
	if cfg.HitRateOverride == nil {
		cfg.HitRateOverride = map[string]float64{}
	}
	r := &Runtime{
		orig:              orig.Clone(),
		tgt:               tgt,
		pm:                tgt.Capabilities().Params,
		cfg:               cfg,
		updCountsOrig:     map[string]uint64{},
		lastUpdCountsOrig: map[string]uint64{},
	}
	// The session shares r.cfg by value; the HitRateOverride map inside is
	// aliased on purpose, so per-round feedback written by OptimizeOnce is
	// visible to the warm search (it reads the overrides as it prices each
	// round's cache spans). The session owns the one verifier of r.orig:
	// search, the joint proof of the applied plan and the deploy gate ask
	// it, and share its proof memo.
	search, err := opt.NewSession(r.orig, r.pm, r.cfg)
	if err != nil {
		return nil, fmt.Errorf("core: partitioning program: %w", err)
	}
	r.search = search
	r.gate = analysis.NewGate(r.pm, search.Verifier())
	// The original is the first program to pass the gate: it must itself
	// be clean of Error-severity findings (unsound caches, overcommitted
	// tiers, bad entries) before it is deployed anywhere.
	if err := r.deployNowLocked(nil); err != nil {
		return nil, err
	}
	return r, nil
}

// Current returns the currently deployed program.
func (r *Runtime) Current() *p4ir.Program {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.current
}

// TranslatedCounters returns the current window's counters expressed
// against the ORIGINAL program's tables and actions, whatever layout is
// deployed — the read-side half of the management-API mapping. The
// collector is not reset.
func (r *Runtime) TranslatedCounters() *profile.Profile {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap, err := r.tgt.Profile(false)
	if err != nil || snap == nil {
		snap = profile.New()
	}
	return r.cmap.Translate(snap, r.orig)
}

// setCurrentLocked is the one place the runtime's view of the deployed
// layout changes. digest is prog's, or zero when the caller has not
// computed it.
func (r *Runtime) setCurrentLocked(prog *p4ir.Program, digest p4ir.Digest, cmap *opt.CounterMap, plan []*opt.Option) {
	r.current, r.currentDigest, r.cmap, r.activePlan = prog, digest, cmap, plan
}

// currentDigestLocked returns current.Digest(), computing and storing it
// when an in-place edit left it unknown.
func (r *Runtime) currentDigestLocked() p4ir.Digest {
	if r.currentDigest == (p4ir.Digest{}) {
		r.currentDigest = r.current.Digest()
	}
	return r.currentDigest
}

// historyCap is how many round reports the runtime keeps: several minutes
// of rounds at the paper's sub-second cadence, enough to read back what
// led up to an incident.
const historyCap = 1024

// History returns the reports of the most recent rounds, oldest first —
// at most historyCap of them; Status counts every round ever run.
func (r *Runtime) History() []RoundReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]RoundReport, 0, len(r.history))
	out = append(out, r.history[r.historyNext:]...)
	return append(out, r.history[:r.historyNext]...)
}

// recordLocked files a finished round: into the ring and into the tally
// Status reads.
func (r *Runtime) recordLocked(rep RoundReport) {
	if len(r.history) < historyCap {
		r.history = append(r.history, rep)
	} else {
		r.history[r.historyNext] = rep
		r.historyNext = (r.historyNext + 1) % historyCap
	}
	r.tally.count(rep)
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
	report = RoundReport{Round: r.round, HitRateFeedback: map[string]float64{}}
	record := func() { r.recordLocked(report) }
	// unstage restores the checkpoint, on the device and in the runtime's
	// view; set once a program is deployed, spent by its one use.
	var unstage func() error
	defer func() {
		if p := recover(); p != nil {
			report.Error = fmt.Sprintf("panic: %v", p)
			if unstage != nil {
				if rerr := unstage(); rerr != nil {
					report.DeployError = fmt.Sprintf("rollback failed: %v", rerr)
				} else {
					report.RolledBack = true
				}
			}
			r.noteDeployFailureLocked()
			record()
			err = fmt.Errorf("core: round panicked: %v", p)
		}
	}()

	optProf, perr := r.tgt.Profile(true)
	if perr != nil {
		// The window is lost (e.g. the remote device is unreachable).
		// Record the round and let the next window retry.
		report.Error = perr.Error()
		record()
		return report, fmt.Errorf("core: profile window: %w", perr)
	}
	if optProf == nil {
		optProf = profile.New()
	}

	// Entry-update rates: delta of data-plane update counts over the
	// window, attributed to original table names via the API mapping's
	// own accounting (updCountsOrig).
	secs := window.Seconds()
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
					report.HitRateFeedback[key] = rate
				}
			}
		}
	}

	// Translate counters to the original program.
	origProf := r.cmap.Translate(optProf, r.orig)
	// Update rates were keyed by original names already.
	for t, rate := range optProf.UpdateRates {
		origProf.UpdateRates[t] = rate
	}

	// Circuit breaker: after repeated failed or rolled-back deploys,
	// pause redeployment (profiling continues) until the cooldown
	// expires, then force a full re-evaluation.
	if r.round <= r.breakerOpenUntil {
		report.BreakerOpen = true
		r.lastCosts = nil
		record()
		return report, nil
	}

	// Change detection (§2.3): re-optimize only when the profile
	// signature moved materially since the last round.
	newCosts := r.profileSignature(origProf)
	if r.cfg.ProfileChangeThreshold > 0 && r.lastCosts != nil {
		if !costsChanged(r.lastCosts, newCosts, r.cfg.ProfileChangeThreshold) {
			report.SkippedUnchanged = true
			r.lastCosts = newCosts
			record()
			return report, nil
		}
	}
	r.lastCosts = newCosts

	// Decide, then materialize: the search, the blacklist and the
	// hysteresis test read only the plan and its gain, so a round they stop
	// never clones, rewrites or proves a program.
	res, err := r.search.Search(origProf)
	if err != nil {
		report.Error = err.Error()
		record()
		return report, err
	}
	report.SearchTime = res.Elapsed
	report.BaselineLatency = res.BaselineLatency
	report.Gain = res.Gain
	report.PlanSize = len(res.Plan)
	for _, o := range res.Plan {
		report.Plan = append(report.Plan, o.String())
	}
	// Cost-model misprediction fault: an inflated predicted gain must be
	// caught by the verification window, not believed.
	if d := faultinject.At(r.faults, faultinject.PointPlan); d.Scale > 0 {
		report.Gain = res.Gain * d.Scale
	}
	planKey := strings.Join(report.Plan, ";")
	if r.planBlacklistedLocked(planKey) {
		report.PlanBlacklisted = true
		// Force the next round to re-evaluate: the withheld plan must be
		// reconsidered once the blacklist expires even if the profile
		// holds still.
		r.lastCosts = nil
		record()
		return report, nil
	}
	// Hysteresis: reconfigure only when the new plan beats the active
	// plan (re-scored under the fresh profile) by RedeployMargin —
	// otherwise keep the deployed layout and its warm caches.
	if len(r.activePlan) > 0 && len(res.Plan) > 0 {
		curGain := r.search.ReScore(origProf, r.activePlan)
		report.ActivePlanGain = curGain
		if curGain > 0 && report.Gain < curGain*(1+r.cfg.RedeployMargin) {
			record()
			return report, nil
		}
	}

	// An empty plan deploys the original back.
	cmp, err := r.deployLocked(res.Plan, true, &report, &unstage)
	if err != nil {
		if report.DeployError != "" {
			r.noteDeployFailureLocked()
		}
		record()
		return report, err
	}
	if unstage == nil { // the layout is the deployed one
		record()
		return report, nil
	}
	report.Deployed = true
	if cmp.Verified {
		contradicted := false
		if cmp.PostErr != nil {
			// Can't confirm the deploy helped — fail safe and restore the
			// checkpoint.
			contradicted = true
			report.DeployError = fmt.Sprintf("verify measure failed: %v", cmp.PostErr)
		} else {
			delta := cmp.Delta()
			report.VerifyDelta = delta
			realized := cmp.Pre.MeanLatencyNs - cmp.Post.MeanLatencyNs
			// The pre-deploy measurement ran on the currently deployed
			// (possibly already optimized) program, so the prediction to
			// hold the plan to is its gain *over the active plan*, not over
			// the original baseline — otherwise replacing a good plan with
			// a better one is judged against the sum of both improvements
			// and spuriously rolled back.
			predicted := report.Gain
			if report.ActivePlanGain > 0 {
				predicted -= report.ActivePlanGain
			}
			regressed := delta > r.guard.MaxRegression
			unrealized := r.guard.MinRealizedGainFrac > 0 &&
				predicted >= minPredictedGainNs &&
				realized < r.guard.MinRealizedGainFrac*predicted
			contradicted = regressed || unrealized
		}
		if contradicted {
			if err := unstage(); err != nil {
				// Device wedged between two programs — the breaker is the
				// only remaining backstop.
				report.DeployError = fmt.Sprintf("rollback failed: %v", err)
				r.noteDeployFailureLocked()
				record()
				return report, fmt.Errorf("core: rollback failed: %w", err)
			}
			report.RolledBack = true
			r.blacklistLocked(planKey)
			r.noteDeployFailureLocked()
			record()
			return report, nil
		}
	}
	if err := r.commitLocked(); err != nil {
		report.DeployError = fmt.Sprintf("commit failed: %v", err)
		r.noteDeployFailureLocked()
		record()
		return report, fmt.Errorf("core: commit failed: %w", err)
	}
	r.consecFailures = 0
	record()
	return report, nil
}

// profileSignature summarizes everything that should trigger a new
// optimization round when it moves: per-pipelet weighted costs, per-table
// drop rates (a drop flip at the last table changes no upstream cost but
// changes the best order), observed cache hit rates, and entry-update
// rates. Its Observe is the round's one reading of the profile: the search
// and the re-score after it start from the view it refreshed.
func (r *Runtime) profileSignature(prof *profile.Profile) map[string]float64 {
	out := map[string]float64{}
	costs, tables, dropRates := r.search.Observe(prof)
	for _, c := range costs {
		out["cost:"+c.Pipelet.Head()] = c.Weighted
	}
	for i, d := range dropRates {
		if d > 0 {
			out["drop:"+tables[i]] = d
		}
	}
	for span, rate := range r.cfg.HitRateOverride {
		if rate > 0 {
			out["hit:"+span] = rate
		}
	}
	for table, rate := range prof.UpdateRates {
		if rate > 0 {
			out["upd:"+table] = rate
		}
	}
	return out
}

// costsChanged reports whether any pipelet cost moved by more than the
// relative threshold (new pipelets or disappearing costs always count).
func costsChanged(old, new map[string]float64, threshold float64) bool {
	for k, nv := range new {
		ov, ok := old[k]
		if !ok {
			if nv > 0 {
				return true
			}
			continue
		}
		base := ov
		if nv > base {
			base = nv
		}
		if base == 0 {
			continue
		}
		if diff := nv - ov; diff > base*threshold || -diff > base*threshold {
			return true
		}
	}
	for k := range old {
		if _, ok := new[k]; !ok {
			return true
		}
	}
	return false
}
