package core

import (
	"pipeleon/internal/faultinject"
	"pipeleon/internal/packet"
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
	MinRealizedGainFrac float64
	// MinPredictedGainNs gates the realized-gain check so noise-level
	// plans are not judged (default 1ns).
	MinPredictedGainNs float64
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

// DefaultDeployGuard returns the default thresholds with the given
// traffic sampler.
func DefaultDeployGuard(sampler func(n int) []*packet.Packet) DeployGuard {
	return DeployGuard{
		Sampler:               sampler,
		VerifyPackets:         256,
		MaxRegression:         0.1,
		MinRealizedGainFrac:   0.2,
		MinPredictedGainNs:    1,
		BlacklistRounds:       3,
		BreakerThreshold:      3,
		BreakerCooldownRounds: 5,
	}
}

func (g *DeployGuard) verifyPackets() int {
	if g.VerifyPackets <= 0 {
		return 256
	}
	return g.VerifyPackets
}

func (g *DeployGuard) maxRegression() float64 {
	if g.MaxRegression <= 0 {
		return 0.1
	}
	return g.MaxRegression
}

func (g *DeployGuard) minPredictedGain() float64 {
	if g.MinPredictedGainNs <= 0 {
		return 1
	}
	return g.MinPredictedGainNs
}

func (g *DeployGuard) blacklistRounds() int {
	if g.BlacklistRounds <= 0 {
		return 3
	}
	return g.BlacklistRounds
}

func (g *DeployGuard) breakerThreshold() int {
	if g.BreakerThreshold <= 0 {
		return 3
	}
	return g.BreakerThreshold
}

func (g *DeployGuard) breakerCooldown() int {
	if g.BreakerCooldownRounds <= 0 {
		return 5
	}
	return g.BreakerCooldownRounds
}

// SetDeployGuard installs (or, with a zero-Sampler guard, removes) the
// transactional-deploy guard. Call before starting Run.
func (r *Runtime) SetDeployGuard(g DeployGuard) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.guard = &g
}

// SetFaultInjector wires a fault injector into the runtime's own fault
// points (plan-gain misprediction, stale counter windows). The NIC and
// control-plane server carry their own injector wiring.
func (r *Runtime) SetFaultInjector(inj faultinject.Injector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.faults = inj
}

func (r *Runtime) faultAt(p faultinject.Point) faultinject.Decision {
	return faultinject.At(r.faults, p)
}

// noteDeployFailureLocked counts a failed or rolled-back deploy toward
// the circuit breaker and forces the next round to re-evaluate (a failed
// deploy must not be masked by the profile-unchanged skip).
func (r *Runtime) noteDeployFailureLocked() {
	r.lastCosts = nil
	r.consecFailures++
	if r.guard != nil && r.consecFailures >= r.guard.breakerThreshold() {
		r.breakerOpenUntil = r.round + r.guard.breakerCooldown()
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
	r.blacklist[planKey] = r.round + r.guard.blacklistRounds()
}

// planBlacklistedLocked reports (and garbage-collects) blacklist state
// for a plan key.
func (r *Runtime) planBlacklistedLocked(planKey string) bool {
	if planKey == "" {
		return false
	}
	exp, ok := r.blacklist[planKey]
	if !ok {
		return false
	}
	if r.round > exp {
		delete(r.blacklist, planKey)
		return false
	}
	return true
}
