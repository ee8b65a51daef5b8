package fleet

import "pipeleon/internal/core"

// DeviceStatus is one device's machine-readable health snapshot.
type DeviceStatus struct {
	Name  string `json:"name"`
	Model string `json:"model"`
	State string `json:"state"`
	// Permanent marks a quarantine that only an operator Recover lifts
	// (restart budget exhausted).
	Permanent bool `json:"permanent,omitempty"`

	ProbeFailStreak  int `json:"probe_fail_streak"`
	DeployFailStreak int `json:"deploy_fail_streak"`
	Restarts         int `json:"restarts"`

	Probes      uint64 `json:"probes"`
	ProbeFails  uint64 `json:"probe_fails"`
	Deploys     uint64 `json:"deploys"`
	DeployFails uint64 `json:"deploy_fails"`
	Commits     uint64 `json:"commits"`
	RolledBack  uint64 `json:"rolled_back"`
	Quarantines uint64 `json:"quarantines"`
	LastError   string `json:"last_error,omitempty"`
}

// PlanCacheStats is the type of Status.PlanCache.
type PlanCacheStats struct {
	Entries int    `json:"entries"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
}

// Status is the aggregate fleet snapshot fleetd serves and `p4cctl fleet
// status` renders.
type Status struct {
	Devices []DeviceStatus `json:"devices"`

	Healthy     int `json:"healthy"`
	Degraded    int `json:"degraded"`
	Quarantined int `json:"quarantined"`
	Recovering  int `json:"recovering"`
	// Serving = Healthy + Degraded: the graceful-degradation headline —
	// how much of the fleet still takes traffic and rollouts.
	Serving int `json:"serving"`

	Rollouts       uint64 `json:"rollouts"`
	HaltedRollouts uint64 `json:"halted_rollouts"`
	FleetRollbacks uint64 `json:"fleet_rollbacks"`

	// PlanCache is always zero: the fleet keeps no plan cache (a canary's
	// Runtime answers an unchanged profile by change detection). The field
	// and its JSON key stay only because the end-to-end benchmark reads
	// .Hits/.Misses for fleet.plancache_hit_ratio.
	PlanCache PlanCacheStats `json:"plan_cache"`
	// OptSearch aggregates the canaries' planning Runtimes: searches
	// served, candidate skeletons reused / built, verdict-memo hit rates,
	// and cumulative search time.
	OptSearch SearchSessionStats `json:"opt_search"`
}

// SearchSessionStats aggregates the live canary Runtimes for Status.
// Sessions counts them, PoolHits the rounds a Runtime already held served,
// PoolMisses the Runtimes built; every other field sums the RuntimeStatus
// counter of the same meaning (Rounds: SearchRounds, UnitHits:
// SearchUnitHits, ...). The JSON keys keep the names of the session pool
// the Runtimes replaced.
type SearchSessionStats struct {
	Sessions         int    `json:"sessions"`
	PoolHits         uint64 `json:"pool_hits"`
	PoolMisses       uint64 `json:"pool_misses"`
	Rounds           int    `json:"rounds"`
	UnitHits         uint64 `json:"unit_hits"`
	UnitMisses       uint64 `json:"unit_misses"`
	VerifyHits       uint64 `json:"verify_hits"`
	VerifyMisses     uint64 `json:"verify_misses"`
	ProofMemoHits    uint64 `json:"proof_memo_hits"`
	ProofMemoMisses  uint64 `json:"proof_memo_misses"`
	ProofForcedConds int    `json:"proof_forced_conds"`
	ProofTotalConds  int    `json:"proof_total_conds"`
	TotalSearchNs    int64  `json:"total_search_ns"`
}

// add folds one Runtime's search counters in.
func (st *SearchSessionStats) add(rs core.RuntimeStatus) {
	st.Rounds += rs.SearchRounds
	st.UnitHits += rs.SearchUnitHits
	st.UnitMisses += rs.SearchUnitMisses
	st.VerifyHits += rs.SearchVerifyHits
	st.VerifyMisses += rs.SearchVerifyMisses
	st.ProofMemoHits += rs.ProofMemoHits
	st.ProofMemoMisses += rs.ProofMemoMisses
	st.ProofForcedConds += rs.ProofForcedConds
	st.ProofTotalConds += rs.ProofTotalConds
	st.TotalSearchNs += rs.TotalSearchNs
}

// Status returns the aggregate fleet snapshot.
func (c *Controller) Status() Status {
	devs := c.snapshotDevices()
	st := Status{Devices: make([]DeviceStatus, 0, len(devs))}
	for _, d := range devs {
		d.mu.Lock()
		ds := DeviceStatus{
			Name:             d.name,
			Model:            d.model,
			State:            d.state.String(),
			Permanent:        d.permanent,
			ProbeFailStreak:  d.probeConsecFail,
			DeployFailStreak: d.deployConsecFail,
			Restarts:         d.restarts,
			Probes:           d.probes,
			ProbeFails:       d.probeFails,
			Deploys:          d.deploys,
			DeployFails:      d.deployFails,
			Commits:          d.commits,
			RolledBack:       d.rollbacks,
			Quarantines:      d.quarantines,
			LastError:        d.lastErr,
		}
		switch d.state {
		case Healthy:
			st.Healthy++
		case Degraded:
			st.Degraded++
		case Quarantined:
			st.Quarantined++
		case Recovering:
			st.Recovering++
		}
		d.mu.Unlock()
		st.Devices = append(st.Devices, ds)
	}
	st.Serving = st.Healthy + st.Degraded
	c.mu.Lock()
	st.Rollouts = c.rollouts
	st.HaltedRollouts = c.haltedRollouts
	st.FleetRollbacks = c.fleetRollbacks
	st.OptSearch = SearchSessionStats{Sessions: len(c.canaries), PoolHits: c.canaryHits, PoolMisses: c.canaryBuilds}
	rts := make([]*core.Runtime, 0, len(c.canaries))
	for _, cn := range c.canaries {
		rts = append(rts, cn.rt)
	}
	c.mu.Unlock()
	// A Runtime's Status waits out a round in progress; read them unlocked.
	for _, rt := range rts {
		st.OptSearch.add(rt.Status())
	}
	return st
}
