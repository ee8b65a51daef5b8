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
	"maps"
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
	// staged is the view before the program deployLocked last staged, while
	// the device holds that program uncommitted (nil otherwise): what
	// unstaging restores. A round's commit or finishLocked resolves it, and
	// deployNowLocked for its own deploys.
	staged *checkpoint

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
	// changeThreshold is profileChangeThreshold, which a test may replace
	// on a runtime.
	changeThreshold float64

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

// RoundReport summarizes one optimization round. How it ended reads in the
// outcome fields, which one place sets: a lost window or a failed search
// sets Error; an open breaker, an unchanged profile, a blacklisted plan set
// BreakerOpen, SkippedUnchanged, PlanBlacklisted; a round the hysteresis
// kept sets none and no error, with ActivePlanGain > 0 (one that found the
// deployed layout again has ActivePlanGain 0); a refusal sets Error when
// the plan did not materialize, DeployError when the gate or the device
// refused; a rollback sets Deployed and RolledBack (and DeployError when
// the post-measure failed), a failed rollback Deployed and DeployError, a
// failed commit all three (the staged program is put back), a commit
// Deployed alone; a panic sets Error, and Deployed with RolledBack or
// DeployError when the device had taken a program.
type RoundReport struct {
	Round int
	// Deployed is true when the device took a new program, whether the
	// round then kept it or not.
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
	// pipelet's cost moved past profileChangeThreshold.
	SkippedUnchanged bool
	// Error records a search/collection failure; the loop continues and
	// the round is still part of History.
	Error string
	// DeployError records a failed program swap (or failed rollback).
	DeployError string
	// RolledBack is true when the checkpointed program was restored: the
	// verification window contradicted the plan's prediction, or a failed
	// commit or a panic left the new program staged.
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
// A malformed original is refused with opt.NewSession's *p4ir.ValidationError.
func NewRuntime(orig *p4ir.Program, tgt target.Target, cfg opt.Config) (*Runtime, error) {
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
		changeThreshold:   profileChangeThreshold,
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
		return nil, err
	}
	r.search = search
	r.gate = analysis.NewGate(r.pm, search.Verifier())
	// The original is the first program to pass the gate: it must itself
	// be clean of Error-severity findings (unsound caches, overcommitted
	// tiers) before it is deployed anywhere.
	if err := r.deployNowLocked(nil); err != nil {
		return nil, err
	}
	return r, nil
}

// Current returns the currently deployed program and its digest, which
// the runtime keeps.
func (r *Runtime) Current() (*p4ir.Program, p4ir.Digest) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.current, r.currentDigestLocked()
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
