package fleet

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

	// PlanCache is always zero: the plan cache is gone (the warm session
	// re-searches in less than a hit cost). The field and its JSON key stay
	// only because bench/layers.go reads .Hits/.Misses for
	// fleet.plancache_hit_ratio; the next benchmark PR drops both.
	PlanCache PlanCacheStats `json:"plan_cache"`
	// OptSearch aggregates the warm optimizer-session pool: searches
	// served, candidate skeletons reused / built, verdict-memo hit rates,
	// and cumulative search time.
	OptSearch SearchSessionStats `json:"opt_search"`
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
	c.mu.Unlock()
	st.OptSearch = c.sessions.stats()
	return st
}

// DeviceState returns the named device's current state (testing and CLI
// convenience).
func (c *Controller) DeviceState(name string) (State, error) {
	d, err := c.lookup(name)
	if err != nil {
		return Healthy, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.state, nil
}
