package fleet

import "time"

// HealthPolicy is healthPolicy with its fields exported, for the external
// tests that tighten or loosen the state machine's thresholds.
type HealthPolicy struct {
	ProbeTimeout                                       time.Duration
	DegradedAfter, QuarantineAfter, BreakerThreshold   int
	QuarantineProbes, ProbationProbes, MaxProbeBackoff int
	RestartBudget                                      int
}

// DefaultHealthPolicy returns the constants every controller runs under.
func DefaultHealthPolicy() HealthPolicy {
	p := constPolicy
	return HealthPolicy{p.probeTimeout, p.degradedAfter, p.quarantineAfter, p.breakerThreshold,
		p.quarantineProbes, p.probationProbes, p.maxProbeBackoff, p.restartBudget}
}

// NewWithPolicy is New under another health policy.
func NewWithPolicy(opts Options, p HealthPolicy) *Controller {
	c := New(opts)
	c.policy = healthPolicy{p.ProbeTimeout, p.DegradedAfter, p.QuarantineAfter, p.BreakerThreshold,
		p.QuarantineProbes, p.ProbationProbes, p.MaxProbeBackoff, p.RestartBudget}
	return c
}

// DeviceState returns the named device's current state.
func (c *Controller) DeviceState(name string) (State, error) {
	d, err := c.lookup(name)
	if err != nil {
		return Healthy, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.state, nil
}
