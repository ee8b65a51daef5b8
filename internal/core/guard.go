package core

import (
	"fmt"

	"pipeleon/internal/faultinject"
	"pipeleon/internal/packet"
	"pipeleon/internal/target"
)

// DeployGuard makes deployments transactional: OptimizeOnce checkpoints
// the deployed program + counter map, measures a sample of traffic before
// and after the swap, and rolls the checkpoint back when the measured
// delta contradicts the plan's prediction — the runtime defense against
// the cost-model mispredictions inherent to estimate-driven pipeline
// exploration. Rolled-back plans are blacklisted for a few rounds, and a
// circuit breaker pauses redeployment after repeated failures so a
// persistently faulty device or model cannot flap the data path.
//
// The guard is opt-in: a Runtime without one (or without a Sampler)
// deploys exactly as before.
type DeployGuard struct {
	// Sampler supplies n representative packets for the verification
	// window (e.g. trafficgen.Generator.Batch, or a recent-flows replay
	// buffer). nil disables verification.
	Sampler func(n int) []*packet.Packet
	// VerifyPackets is the sample size per window (default 256).
	VerifyPackets int
	// MaxRegression rolls back when post-deploy mean latency exceeds
	// pre-deploy by more than this fraction (default 0.1).
	MaxRegression float64
	// MinRealizedGainFrac rolls back when the measured latency
	// improvement is below this fraction of the plan's predicted gain —
	// the misprediction detector. 0 disables the check (default 0.2).
	// Plans predicted to gain less than minPredictedGainNs are not judged:
	// their gain is noise-level.
	MinRealizedGainFrac float64
	// BlacklistRounds is how many rounds a rolled-back plan is barred
	// from redeployment (default 3).
	BlacklistRounds int
	// BreakerThreshold opens the circuit breaker after this many
	// consecutive failed or rolled-back deploys (default 3).
	BreakerThreshold int
	// BreakerCooldownRounds is how many rounds the breaker stays open,
	// pausing redeployment while profiling continues (default 5).
	BreakerCooldownRounds int
}

// minPredictedGainNs is the smallest predicted gain the realized-gain
// check judges.
const minPredictedGainNs = 1

// DefaultDeployGuard returns the default thresholds with the given
// traffic sampler.
func DefaultDeployGuard(sampler func(n int) []*packet.Packet) DeployGuard {
	return DeployGuard{
		Sampler:               sampler,
		VerifyPackets:         256,
		MaxRegression:         0.1,
		MinRealizedGainFrac:   0.2,
		BlacklistRounds:       3,
		BreakerThreshold:      3,
		BreakerCooldownRounds: 5,
	}
}

// Comparison is a deploy measured on both sides: the running program and
// the program deployed after it, on one sample at equal cache warmth.
type Comparison struct {
	// Verified is set when a baseline was measured: the sample held packets
	// and the pre-deploy measurement succeeded with a positive mean latency.
	// Without one the deploy went ahead unverified — a broken measurement
	// path never blocks a deploy.
	Verified bool
	Pre      target.Measurement
	Post     target.Measurement
	// PostErr is the post-deploy measurement's failure: the device changed
	// programs and went mute, which contradicts the deploy.
	PostErr error
}

// Judge is the one judgment of a measured deploy — the runtime's guard
// and the fleet's verify step both ask it. It returns the relative
// mean-latency change across the deploy, (post-pre)/pre (zero when the
// deploy was not verified or the post-measure failed), and, when the
// measurement contradicts the deploy, why: the post-deploy measurement
// failed, the mean latency regressed by more than maxRegression, or less
// than minRealizedFrac of the predicted gain (ns) was realized. That last
// check is off at minRealizedFrac 0 and for predictions under
// minPredictedGainNs. An unverified deploy is never contradicted.
func (c Comparison) Judge(maxRegression, minRealizedFrac, predictedNs float64) (float64, error) {
	if !c.Verified {
		return 0, nil
	}
	if c.PostErr != nil {
		return 0, fmt.Errorf("verify measurement failed: %w", c.PostErr)
	}
	delta := (c.Post.MeanLatencyNs - c.Pre.MeanLatencyNs) / c.Pre.MeanLatencyNs
	if delta > maxRegression {
		return delta, fmt.Errorf("verify: mean latency regressed %+.0f%% (max %+.0f%%)", delta*100, maxRegression*100)
	}
	realized := c.Pre.MeanLatencyNs - c.Post.MeanLatencyNs
	if minRealizedFrac > 0 && predictedNs >= minPredictedGainNs && realized < minRealizedFrac*predictedNs {
		return delta, fmt.Errorf("verify: realized %.0fns of a predicted %.0fns gain (min %.0f%%)", realized, predictedNs, minRealizedFrac*100)
	}
	return delta, nil
}

// CompareDeploy runs deploy between two measurements of sample on tgt, each
// after one discarded pass that warms the caches: a freshly swapped program
// starts cold, and measuring it against the warm incumbent would veto every
// cache plan. It is the one way a deploy's VerifyDelta is measured — the
// runtime's guard and the fleet's per-device verify step both call it. The
// error is deploy's; a failed measurement is reported in the Comparison.
func CompareDeploy(tgt target.Target, sample []*packet.Packet, deploy func() error) (Comparison, error) {
	var c Comparison
	if len(sample) > 0 {
		_, _ = tgt.Measure(sample)
		pre, err := tgt.Measure(sample)
		c.Verified, c.Pre = err == nil && pre.MeanLatencyNs > 0, pre
	}
	if err := deploy(); err != nil {
		return c, err
	}
	if c.Verified {
		_, _ = tgt.Measure(sample)
		c.Post, c.PostErr = tgt.Measure(sample)
	}
	return c, nil
}

// SetDeployGuard installs (or, with a zero-Sampler guard, removes) the
// transactional-deploy guard; a threshold left zero or negative takes
// DefaultDeployGuard's. Call before the first round.
func (r *Runtime) SetDeployGuard(g DeployGuard) {
	d := DefaultDeployGuard(g.Sampler)
	orDefault(&g.VerifyPackets, d.VerifyPackets)
	orDefault(&g.MaxRegression, d.MaxRegression)
	orDefault(&g.BlacklistRounds, d.BlacklistRounds)
	orDefault(&g.BreakerThreshold, d.BreakerThreshold)
	orDefault(&g.BreakerCooldownRounds, d.BreakerCooldownRounds)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.guard = &g
}

// orDefault sets an unset (zero or negative) threshold to def.
func orDefault[T int | float64](v *T, def T) {
	if *v <= 0 {
		*v = def
	}
}

// SetFaultInjector wires a fault injector into the runtime's one fault
// point, PointPlan (a failed search, a plan-gain misprediction). Device
// faults are injected at the target (target.WithFaults), the wire's at the
// control-plane server.
func (r *Runtime) SetFaultInjector(inj faultinject.Injector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.faults = inj
}

// noteDeployFailureLocked counts a failed or rolled-back deploy toward
// the circuit breaker.
func (r *Runtime) noteDeployFailureLocked() {
	r.consecFailures++
	if r.guard != nil && r.consecFailures >= r.guard.BreakerThreshold {
		r.breakerOpenUntil = r.round + r.guard.BreakerCooldownRounds
		r.consecFailures = 0
	}
}

// blacklistLocked bars a plan from redeployment for the configured
// number of rounds, and sweeps the entries that have expired: a plan that
// is never chosen again is never looked up, and would otherwise stay.
func (r *Runtime) blacklistLocked(planKey string) {
	if planKey == "" || r.guard == nil {
		return
	}
	if r.blacklist == nil {
		r.blacklist = map[string]int{}
	}
	for key, exp := range r.blacklist {
		if r.round > exp {
			delete(r.blacklist, key)
		}
	}
	r.blacklist[planKey] = r.round + r.guard.BlacklistRounds
}
