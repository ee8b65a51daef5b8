package core

// RuntimeStatus is the machine-readable aggregate of a runtime's health:
// everything a fleet controller needs to judge one device's optimization
// loop without replaying its per-round RoundReport history. All counters
// are cumulative since the runtime was built; the booleans reflect the
// state the next round would observe. The struct is JSON-stable so it can
// cross the control-plane wire (OpStats) and be aggregated by fleetd.
type RuntimeStatus struct {
	// Round is the number of completed optimization rounds.
	Round int `json:"round"`
	// Deploys counts rounds that swapped a new program in (including
	// those later rolled back).
	Deploys int `json:"deploys"`
	// RolledBack counts deploys undone: by the verification window, or
	// after a panic or a failed commit left them staged.
	RolledBack int `json:"rolled_back"`
	// DeployErrors counts rounds whose swap, verify, commit, or rollback
	// failed outright.
	DeployErrors int `json:"deploy_errors"`
	// BreakerOpenRounds counts rounds skipped because the redeploy
	// circuit breaker was open.
	BreakerOpenRounds int `json:"breaker_open_rounds"`
	// BreakerOpen reports whether the breaker would still pause the next
	// round.
	BreakerOpen bool `json:"breaker_open"`
	// ConsecutiveFailures is the current failed/rolled-back deploy streak
	// feeding the breaker.
	ConsecutiveFailures int `json:"consecutive_failures"`
	// BlacklistedPlans is the number of plans currently barred from
	// redeployment.
	BlacklistedPlans int `json:"blacklisted_plans"`
	// PlanBlacklistedRounds counts rounds whose chosen plan was withheld
	// by the blacklist.
	PlanBlacklistedRounds int `json:"plan_blacklisted_rounds"`
	// SkippedUnchanged counts rounds skipped by profile-change detection.
	SkippedUnchanged int `json:"skipped_unchanged"`
	// Errors counts rounds with a search/collection error.
	Errors int `json:"errors"`
	// LastError is the most recent round error or deploy error ("" when
	// the latest rounds were clean).
	LastError string `json:"last_error,omitempty"`

	// Warm-search session counters (see opt.SessionStats): pipelets priced
	// on a candidate skeleton the session held (unit hits) versus built
	// first (unit misses), rewrite verdicts reused versus proven, and what
	// each round's search actually cost.
	SearchRounds       int    `json:"search_rounds"`
	SearchUnitHits     uint64 `json:"search_unit_hits"`
	SearchUnitMisses   uint64 `json:"search_unit_misses"`
	SearchVerifyHits   uint64 `json:"search_verify_hits"`
	SearchVerifyMisses uint64 `json:"search_verify_misses"`
	// ProofMemo* count whole-program proofs — the applied plan, the deploy
	// gate — answered from the verifier's program-digest memo versus
	// actually run.
	ProofMemoHits   uint64 `json:"proof_memo_hits"`
	ProofMemoMisses uint64 `json:"proof_memo_misses"`
	// ProofForcedConds of the program's ProofTotalConds conditionals split
	// the path classes the semantic tier compares (both zero unless
	// Options.DeepVerify); forced < total means the class budget coarsened
	// the (still sound) comparison.
	ProofForcedConds int `json:"proof_forced_conds"`
	ProofTotalConds  int `json:"proof_total_conds"`
	// LastSearchNs / TotalSearchNs are wall-clock search latencies in
	// nanoseconds (last round / cumulative).
	LastSearchNs  int64 `json:"last_search_ns"`
	TotalSearchNs int64 `json:"total_search_ns"`
}

// count folds one recorded round into the cumulative counters. The
// runtime keeps one RuntimeStatus as its running tally, so Status never
// re-reads the round history.
func (st *RuntimeStatus) count(rep RoundReport) {
	if rep.Deployed {
		st.Deploys++
	}
	if rep.RolledBack {
		st.RolledBack++
	}
	if rep.DeployError != "" {
		st.DeployErrors++
	}
	if rep.BreakerOpen {
		st.BreakerOpenRounds++
	}
	if rep.PlanBlacklisted {
		st.PlanBlacklistedRounds++
	}
	if rep.SkippedUnchanged {
		st.SkippedUnchanged++
	}
	if rep.Error != "" {
		st.Errors++
	}
	switch {
	case rep.Error != "":
		st.LastError = rep.Error
	case rep.DeployError != "":
		st.LastError = rep.DeployError
	case rep.Deployed && !rep.RolledBack:
		st.LastError = ""
	}
}

// Status reports the running round tally and the live guard state as a
// RuntimeStatus, so a remote observer never has to fetch and fold
// per-round reports itself. Its cost does not depend on how many rounds
// have run.
func (r *Runtime) Status() RuntimeStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.tally
	st.Round = r.round
	st.BreakerOpen = r.round < r.breakerOpenUntil
	st.ConsecutiveFailures = r.consecFailures
	if r.search != nil {
		ss := r.search.Stats()
		st.SearchRounds = ss.Rounds
		st.SearchUnitHits = ss.UnitHits
		st.SearchUnitMisses = ss.UnitMisses
		st.SearchVerifyHits = ss.VerifyHits
		st.SearchVerifyMisses = ss.VerifyMisses
		st.ProofMemoHits = ss.ProofMemoHits
		st.ProofMemoMisses = ss.ProofMemoMisses
		st.ProofForcedConds = ss.ProofForcedConds
		st.ProofTotalConds = ss.ProofTotalConds
		st.LastSearchNs = ss.LastSearch.Nanoseconds()
		st.TotalSearchNs = ss.TotalSearch.Nanoseconds()
	}
	// Count only live blacklist entries; blacklistLocked sweeps expired
	// ones, so the map holds at most a few.
	for _, exp := range r.blacklist {
		if r.round <= exp {
			st.BlacklistedPlans++
		}
	}
	return st
}
