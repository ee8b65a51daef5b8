package fleet

import (
	"encoding/hex"
	"errors"
	"fmt"
	"sync"

	"pipeleon/internal/opt"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/profile"
	"pipeleon/internal/target"
)

// VerifyConfig is the per-device measured-regression check a rollout runs
// around every deploy, mirroring the single-device runtime's deploy guard:
// measure before, deploy, measure after on the same sample, and roll the
// device back if latency regressed past the allowance.
type VerifyConfig struct {
	// Sampler produces the verification batch (nil disables verification).
	Sampler func(n int) []*packet.Packet
	// Packets per verification measurement (default 256).
	Packets int
	// MaxRegression is the tolerated relative mean-latency increase
	// (default 0.2 — looser than the runtime's guard because a fresh
	// deploy measures with cold caches).
	MaxRegression float64
}

func (v VerifyConfig) packets() int {
	if v.Packets > 0 {
		return v.Packets
	}
	return 256
}

func (v VerifyConfig) maxRegression() float64 {
	if v.MaxRegression > 0 {
		return v.MaxRegression
	}
	return 0.2
}

// RolloutConfig shapes a staged rollout.
type RolloutConfig struct {
	// Canary is the size of the first stage (default 1). Any canary
	// failure halts the rollout before fan-out.
	Canary int
	// FirstWave is the size of the first post-canary wave (default 2).
	FirstWave int
	// WaveGrowth multiplies each subsequent wave (default 2).
	WaveGrowth int
	// MaxFailureFrac halts the rollout when cumulative
	// failures/attempted exceeds it after any stage (default 0.25).
	MaxFailureFrac float64
	// Verify configures the per-device regression check.
	Verify VerifyConfig
}

// DefaultRolloutConfig returns the production defaults with the given
// verification sampler (nil sampler → deploys are unverified).
func DefaultRolloutConfig(sampler func(n int) []*packet.Packet) RolloutConfig {
	return RolloutConfig{
		Canary:         1,
		FirstWave:      2,
		WaveGrowth:     2,
		MaxFailureFrac: 0.25,
		Verify:         VerifyConfig{Sampler: sampler},
	}
}

func (cfg RolloutConfig) withDefaults() RolloutConfig {
	if cfg.Canary <= 0 {
		cfg.Canary = 1
	}
	if cfg.FirstWave <= 0 {
		cfg.FirstWave = 2
	}
	if cfg.WaveGrowth <= 1 {
		cfg.WaveGrowth = 2
	}
	if cfg.MaxFailureFrac <= 0 {
		cfg.MaxFailureFrac = 0.25
	}
	return cfg
}

// planStages returns the stage sizes for n devices: canary, then waves
// growing geometrically until the fleet is covered.
func planStages(n int, cfg RolloutConfig) []int {
	if n <= 0 {
		return nil
	}
	var stages []int
	canary := cfg.Canary
	if canary > n {
		canary = n
	}
	stages = append(stages, canary)
	left := n - canary
	wave := cfg.FirstWave
	for left > 0 {
		size := wave
		if size > left {
			size = left
		}
		stages = append(stages, size)
		left -= size
		wave *= cfg.WaveGrowth
	}
	return stages
}

// DeviceResult is one device's outcome within a rollout.
type DeviceResult struct {
	Device string `json:"device"`
	// Stage is the 0-based stage index (0 = canary); -1 when the device
	// already ran the target program and was skipped as converged.
	Stage     int  `json:"stage"`
	Committed bool `json:"committed"`
	// Converged marks a device that already ran the target program.
	Converged bool `json:"converged,omitempty"`
	// RolledBack marks a per-device verify rollback.
	RolledBack bool `json:"rolled_back,omitempty"`
	// FleetRolledBack marks a committed device that was reverted by the
	// fleet-wide halt.
	FleetRolledBack bool `json:"fleet_rolled_back,omitempty"`
	// VerifyDelta is the relative mean-latency change measured by the
	// verification window (post vs pre).
	VerifyDelta float64 `json:"verify_delta,omitempty"`
	Err         string  `json:"err,omitempty"`
}

// StageReport summarizes one rollout stage.
type StageReport struct {
	Stage   int      `json:"stage"`
	Canary  bool     `json:"canary"`
	Devices []string `json:"devices"`
	Failed  int      `json:"failed"`
}

// RolloutReport is the outcome of one staged rollout.
type RolloutReport struct {
	// Fingerprint names the program that was rolled out (display form).
	Fingerprint string         `json:"fingerprint"`
	Stages      []StageReport  `json:"stages"`
	Results     []DeviceResult `json:"results"`
	// Halted is set when the canary failed or the failure ratio breached
	// MaxFailureFrac; no further stages ran.
	Halted     bool   `json:"halted"`
	HaltReason string `json:"halt_reason,omitempty"`
	// RolledBack is set when the halt reverted already-committed devices.
	RolledBack bool `json:"rolled_back"`
	// RollbackErrors lists devices whose fleet rollback itself failed
	// (they are left degraded for the health loop to deal with).
	RollbackErrors []string `json:"rollback_errors,omitempty"`
	// Committed names the devices left running the new program.
	Committed []string `json:"committed"`
	// Skipped names devices excluded up front (quarantined/recovering).
	Skipped []string `json:"skipped,omitempty"`
	// Attempted/Failed are the cumulative counts behind the ratio check.
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
}

// shortDigest is the display form of a program digest in logs and reports:
// its first 16 hex characters. Rollouts and the session pool identify
// programs by the whole digest.
func shortDigest(d p4ir.Digest) string { return hex.EncodeToString(d[:8]) }

// Rollout deploys prog to every eligible device in stages: canary first,
// then exponentially growing waves. Each device deploy is verified with a
// before/after measurement (rolling back just that device on regression);
// any canary failure, or a cumulative failure ratio above
// cfg.MaxFailureFrac, halts the rollout and rolls back every device the
// rollout had already committed. Devices already running prog are counted
// as converged without a deploy, so Rollout is also the fleet's
// convergence primitive after recoveries.
func (c *Controller) Rollout(prog *p4ir.Program, cfg RolloutConfig) (*RolloutReport, error) {
	if prog == nil {
		return nil, errors.New("fleet: rollout needs a program")
	}
	return c.rollout(prog, prog.Digest(), cfg)
}

// rollout is Rollout of a program whose digest the caller has: want must be
// prog.Digest().
func (c *Controller) rollout(prog *p4ir.Program, want p4ir.Digest, cfg RolloutConfig) (*RolloutReport, error) {
	c.rolloutMu.Lock()
	defer c.rolloutMu.Unlock()
	cfg = cfg.withDefaults()

	eligible, skipped := c.eligibleDevices()
	rep := &RolloutReport{Fingerprint: shortDigest(want), Skipped: skipped}
	if len(eligible) == 0 {
		return rep, errors.New("fleet: no eligible devices")
	}
	c.mu.Lock()
	c.rollouts++
	c.mu.Unlock()

	// Devices already running the target program need no deploy. The test
	// skips one, so it compares whole digests.
	var pending []*device
	for _, d := range eligible {
		if got, ok := digestOf(d.tgt); ok && got == want {
			rep.Results = append(rep.Results, DeviceResult{
				Device: d.name, Stage: -1, Committed: true, Converged: true,
			})
			rep.Committed = append(rep.Committed, d.name)
			continue
		}
		pending = append(pending, d)
	}
	if len(pending) == 0 {
		c.logf("rollout %s: fleet already converged (%d devices)", rep.Fingerprint, len(eligible))
		return rep, nil
	}

	var commits []committedDeploy

	stages := planStages(len(pending), cfg)
	next := 0
	for si, size := range stages {
		stageDevs := pending[next : next+size]
		next += size
		canary := si == 0

		// Deploy the whole stage concurrently; results are collected by
		// index so the report order is deterministic.
		results := make([]DeviceResult, len(stageDevs))
		prevs := make([]*p4ir.Program, len(stageDevs))
		var wg sync.WaitGroup
		for i, d := range stageDevs {
			wg.Add(1)
			go func(i int, d *device) {
				defer wg.Done()
				results[i], prevs[i] = c.deployOne(d, prog, cfg, si)
			}(i, d)
		}
		wg.Wait()

		sr := StageReport{Stage: si, Canary: canary}
		for i, r := range results {
			sr.Devices = append(sr.Devices, r.Device)
			rep.Results = append(rep.Results, r)
			rep.Attempted++
			if r.Committed {
				commits = append(commits, committedDeploy{stageDevs[i], prevs[i]})
			} else {
				rep.Failed++
				sr.Failed++
			}
		}
		rep.Stages = append(rep.Stages, sr)
		c.logf("rollout %s: stage %d (%d devices) done, %d failed",
			rep.Fingerprint, si, len(stageDevs), sr.Failed)

		ratio := float64(rep.Failed) / float64(rep.Attempted)
		switch {
		case canary && sr.Failed > 0:
			rep.Halted = true
			rep.HaltReason = fmt.Sprintf("canary failed (%d/%d)", sr.Failed, len(stageDevs))
		case ratio > cfg.MaxFailureFrac:
			rep.Halted = true
			rep.HaltReason = fmt.Sprintf("failure ratio %.2f exceeds %.2f after stage %d",
				ratio, cfg.MaxFailureFrac, si)
		}
		if rep.Halted {
			c.mu.Lock()
			c.haltedRollouts++
			c.mu.Unlock()
			c.logf("rollout %s: HALT: %s", rep.Fingerprint, rep.HaltReason)
			c.rollbackCommitted(rep, commits)
			return rep, nil
		}
	}

	for _, cm := range commits {
		rep.Committed = append(rep.Committed, cm.d.name)
	}
	return rep, nil
}

// committedDeploy remembers what a committed device ran before the
// rollout, so a fleet-wide halt can revert it.
type committedDeploy struct {
	d    *device
	prev *p4ir.Program
}

// rollbackCommitted reverts every device the halted rollout had already
// committed back to its previous program.
func (c *Controller) rollbackCommitted(rep *RolloutReport, commits []committedDeploy) {
	if len(commits) == 0 {
		return
	}
	rep.RolledBack = true
	c.mu.Lock()
	c.fleetRollbacks++
	c.mu.Unlock()
	var wg sync.WaitGroup
	errs := make([]error, len(commits))
	for i, cm := range commits {
		wg.Add(1)
		go func(i int, d *device, prev *p4ir.Program) {
			defer wg.Done()
			errs[i] = safeCall(func() error {
				if prev == nil {
					return errors.New("no previous program captured")
				}
				if err := d.tgt.Deploy(prev); err != nil {
					return err
				}
				return d.tgt.Commit()
			})
		}(i, cm.d, cm.prev)
	}
	wg.Wait()
	for i, cm := range commits {
		d := cm.d
		d.mu.Lock()
		d.rollbacks++
		d.mu.Unlock()
		// Flip the device's committed result in the report.
		for ri := range rep.Results {
			if rep.Results[ri].Device == d.name && rep.Results[ri].Committed {
				rep.Results[ri].Committed = false
				rep.Results[ri].FleetRolledBack = true
			}
		}
		if err := errs[i]; err != nil {
			rep.RollbackErrors = append(rep.RollbackErrors,
				fmt.Sprintf("%s: %v", d.name, err))
			d.mu.Lock()
			d.noteDeployFailureLocked(fmt.Errorf("fleet rollback failed: %w", err), c.policy)
			d.mu.Unlock()
		}
	}
	rep.Committed = nil
	c.logf("rollout %s: rolled back %d committed devices", rep.Fingerprint, len(commits))
}

// deployOne runs the deploy → verify → commit-or-rollback transaction for
// one device and applies the outcome to its health state machine. prev is
// the program the device ran before the deploy (for fleet rollback).
func (c *Controller) deployOne(d *device, prog *p4ir.Program, cfg RolloutConfig, stage int) (DeviceResult, *p4ir.Program) {
	res := DeviceResult{Device: d.name, Stage: stage}
	var prev *p4ir.Program
	err := safeCall(func() error {
		prev = d.tgt.Program()

		// Pre-deploy measurement on the verification sample. A failed
		// pre-measure disables verification (matching the single-device
		// guard: never block a deploy on a broken measurement path), but a
		// failed post-measure contradicts the deploy — the device just
		// changed programs and went mute.
		var sample []*packet.Packet
		var pre target.Measurement
		verifying := cfg.Verify.Sampler != nil
		if verifying {
			sample = cfg.Verify.Sampler(cfg.Verify.packets())
			verifying = len(sample) > 0
		}
		if verifying {
			var merr error
			pre, merr = d.tgt.Measure(sample)
			if merr != nil || pre.MeanLatencyNs <= 0 {
				verifying = false
			}
		}

		if err := d.tgt.Deploy(prog); err != nil { // the backend keeps a copy
			return fmt.Errorf("deploy: %w", err)
		}
		d.mu.Lock()
		d.deploys++
		d.mu.Unlock()

		if verifying {
			post, merr := d.tgt.Measure(sample)
			bad := false
			if merr != nil {
				bad = true
				res.Err = fmt.Sprintf("verify measurement failed: %v", merr)
			} else {
				res.VerifyDelta = (post.MeanLatencyNs - pre.MeanLatencyNs) / pre.MeanLatencyNs
				bad = res.VerifyDelta > cfg.Verify.maxRegression()
			}
			if bad {
				if rerr := d.tgt.Rollback(); rerr != nil {
					return fmt.Errorf("verify failed and rollback failed too: %v", rerr)
				}
				res.RolledBack = true
				d.mu.Lock()
				d.rollbacks++
				d.mu.Unlock()
				if res.Err != "" {
					return errors.New(res.Err)
				}
				return fmt.Errorf("verify: mean latency regressed %+.0f%% (max %+.0f%%)",
					res.VerifyDelta*100, cfg.Verify.maxRegression()*100)
			}
		}

		if err := d.tgt.Commit(); err != nil {
			return fmt.Errorf("commit: %w", err)
		}
		res.Committed = true
		return nil
	})

	d.mu.Lock()
	defer d.mu.Unlock()
	if err != nil {
		if res.Err == "" {
			res.Err = err.Error()
		}
		d.deployFails++
		d.noteDeployFailureLocked(err, c.policy)
		return res, prev
	}
	d.commits++
	d.noteDeploySuccessLocked()
	return res, prev
}

// OptimizeAndRollout runs one fleet optimization round: for each device
// model represented in the eligible fleet, it profiles the group's canary
// (first eligible device), searches that profile on the warm session held
// for the (program, model) pair and stages a Rollout of the result across
// the whole fleet. A round that finds the plan the fleet already runs
// costs no deploy: Rollout skips every device whose program digest
// matches. base is the original (unoptimized) program the plans are
// computed from.
//
// A group whose canary cannot be profiled or planned does not hold back
// the other models: the round goes on, and the error returned joins every
// group's failure beside the reports that were gathered.
func (c *Controller) OptimizeAndRollout(base *p4ir.Program, cfg RolloutConfig) ([]*RolloutReport, error) {
	if base == nil {
		return nil, errors.New("fleet: OptimizeAndRollout needs the base program")
	}
	eligible, _ := c.eligibleDevices()
	if len(eligible) == 0 {
		return nil, errors.New("fleet: no eligible devices")
	}
	var reports []*RolloutReport
	var errs []error
	for _, g := range modelGroups(eligible) {
		canary := g.Devs[0]
		res, rw, err := c.planFor(base, canary)
		if err != nil {
			errs = append(errs, fmt.Errorf("fleet: planning for model %s via %s: %w", g.Model, canary.name, err))
			continue
		}
		if rw == nil {
			c.logf("optimize: model %s: no profitable plan, skipping rollout", g.Model)
			continue
		}
		c.logf("optimize: model %s: plan %v (est. gain %.0fns)", g.Model, res.Plan, res.Gain)
		rep, err := c.rollout(rw.Program, rw.Digest, cfg)
		if rep != nil {
			reports = append(reports, rep)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("model %s: %w", g.Model, err))
		}
	}
	return reports, errors.Join(errs...)
}

// planFor searches base under the canary device's current profile, on the
// warm session for (base, canary model). A nil Rewrite means no plan paid.
func (c *Controller) planFor(base *p4ir.Program, canary *device) (*opt.SearchResult, *opt.Rewrite, error) {
	var prof *profile.Profile
	err := safeCall(func() error {
		p, err := canary.tgt.Profile(false)
		if err != nil {
			return err
		}
		prof = p
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("profiling canary: %w", err)
	}
	s, err := c.sessions.get(base.Digest(), canary.model, base, canary.tgt.Capabilities().Params, c.optCfg)
	if err != nil {
		return nil, nil, err
	}
	return s.SearchAndApply(prof)
}
