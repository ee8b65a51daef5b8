package fleet

import (
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"sync"

	"pipeleon/internal/core"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
)

// VerifyConfig is the measured-regression check around every deploy of a
// rollout, and the source of the canary Runtime's core.DeployGuard (Sampler,
// VerifyPackets, MaxRegression): core.CompareDeploy measures the sample on
// the running program and on the deployed one at equal cache warmth, and a
// device whose latency regressed past the allowance is rolled back. Packets
// keeps its name until the benchmark that sets it changes with it.
type VerifyConfig struct {
	// Sampler produces the verification batch (nil disables verification).
	Sampler func(n int) []*packet.Packet
	// Packets per verification measurement (default 256).
	Packets int
	// MaxRegression is the tolerated relative mean-latency increase
	// (default 0.2).
	MaxRegression float64
}

// RolloutConfig shapes a staged rollout.
type RolloutConfig struct {
	// Canary is the size of the first stage (default 1). Any canary
	// failure halts the rollout before fan-out.
	Canary int
	// FirstWave is the size of the first post-canary wave (default 2);
	// each later wave is waveGrowth times the one before.
	FirstWave int
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
	if cfg.MaxFailureFrac <= 0 {
		cfg.MaxFailureFrac = 0.25
	}
	if cfg.Verify.Packets <= 0 {
		cfg.Verify.Packets = 256
	}
	if cfg.Verify.MaxRegression <= 0 {
		cfg.Verify.MaxRegression = 0.2
	}
	return cfg
}

// waveGrowth multiplies each post-canary wave after the first.
const waveGrowth = 2

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
		wave *= waveGrowth
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
// its first 16 hex characters. Rollouts and the canaries identify programs
// by the whole digest.
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
	c.rolloutMu.Lock()
	defer c.rolloutMu.Unlock()
	return c.rollout(prog, prog.Digest(), "", cfg)
}

// rollout is Rollout of prog, whose digest is want, over the eligible
// devices of one model ("" = every model). The caller holds rolloutMu.
func (c *Controller) rollout(prog *p4ir.Program, want p4ir.Digest, model string, cfg RolloutConfig) (*RolloutReport, error) {
	cfg = cfg.withDefaults()

	eligible, skipped := c.eligibleDevices()
	if model != "" {
		eligible = slices.DeleteFunc(eligible, func(d *device) bool { return d.model != model })
	}
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
	deployed := false
	err := safeCall(func() error {
		prev = d.tgt.Program()
		var sample []*packet.Packet
		if cfg.Verify.Sampler != nil {
			sample = cfg.Verify.Sampler(cfg.Verify.Packets)
		}
		cmp, err := core.CompareDeploy(d.tgt, sample, func() error {
			err := d.tgt.Deploy(prog) // the backend keeps a copy
			deployed = err == nil
			return err
		})
		if err != nil {
			return fmt.Errorf("deploy: %w", err)
		}
		var contradicted error
		res.VerifyDelta, contradicted = cmp.Judge(cfg.Verify.MaxRegression, 0, 0)
		if contradicted != nil {
			if rerr := d.tgt.Rollback(); rerr != nil {
				return fmt.Errorf("verify failed and rollback failed too: %v", rerr)
			}
			res.RolledBack = true
			return contradicted
		}
		if err := d.tgt.Commit(); err != nil {
			return fmt.Errorf("commit: %w", err)
		}
		res.Committed = true
		return nil
	})
	if err != nil {
		res.Err = err.Error()
	}
	d.noteDeploy(deployed, res.RolledBack, err, c.policy)
	return res, prev
}

// canary is the core.Runtime planning one device model's rollouts, bound to
// the group's canary device and to the base program whose digest it names.
type canary struct {
	dev  *device
	base p4ir.Digest
	rt   *core.Runtime
	// deploys is dev's deploy count when the Runtime last acted: a deploy
	// since then was another rollout's, to a layout the Runtime does not know.
	deploys uint64
}

// OptimizeAndRollout runs one fleet optimization round from base, the
// original program: for each device model in the eligible fleet, the
// model's canary runs one round of its core.Runtime — profile, counter
// translation, change detection, warm search, hysteresis, blacklist, gate
// and a verified deploy on the canary — and a rollout stages the program
// the canary then runs across the model's eligible devices; devices
// already running it cost no deploy. Rounds and rollouts are serialized.
// Between rounds base changes by entry operations only: a round hashes it
// again when it is another program or its EntryVersion moved.
//
// A group whose canary cannot be profiled or planned does not hold back
// the other models: the error returned joins every group's failure beside
// the reports that were gathered.
func (c *Controller) OptimizeAndRollout(base *p4ir.Program, cfg RolloutConfig) ([]*RolloutReport, error) {
	if base == nil {
		return nil, errors.New("fleet: OptimizeAndRollout needs the base program")
	}
	// The canaries' deploys, commits and rollbacks, like a rollout's, must
	// not interleave with another transaction on a device's one checkpoint.
	c.rolloutMu.Lock()
	defer c.rolloutMu.Unlock()
	eligible, _ := c.eligibleDevices()
	if len(eligible) == 0 {
		return nil, errors.New("fleet: no eligible devices")
	}
	cfg = cfg.withDefaults()
	digest := c.baseDigest(base)
	guard := core.DeployGuard{Sampler: cfg.Verify.Sampler, VerifyPackets: cfg.Verify.Packets, MaxRegression: cfg.Verify.MaxRegression}
	var reports []*RolloutReport
	var errs []error
	for _, g := range modelGroups(eligible) {
		model := g.Model
		cn, err := c.canaryFor(model, g.Devs, base, digest)
		if err != nil {
			errs = append(errs, err)
		}
		if cn == nil {
			continue
		}
		cn.rt.SetDeployGuard(guard)
		// The fleet sends no entry operation through the Runtime, so there
		// are no update counts for a window length to turn into rates.
		rep, err := cn.rt.OptimizeOnce(0)
		var failed error
		if rep.DeployError != "" || rep.RolledBack {
			failed = fmt.Errorf("canary round %d: rolled back=%v verify delta %+.0f%% %s", rep.Round, rep.RolledBack, rep.VerifyDelta*100, rep.DeployError)
		}
		cn.deploys = cn.dev.noteDeploy(rep.Deployed, rep.RolledBack, failed, c.policy)
		if err != nil {
			errs = append(errs, fmt.Errorf("fleet: planning for model %s via %s: %w", model, cn.dev.name, err))
			continue
		}
		c.logf("optimize: model %s via %s: plan %v (est. gain %.0fns) deployed=%v rolled back=%v",
			model, cn.dev.name, rep.Plan, rep.Gain, rep.Deployed, rep.RolledBack)
		// The rollout covers the model's devices: another model's canary
		// runs its own plan.
		cur, want := cn.rt.Current()
		rr, err := c.rollout(cur, want, model, cfg)
		if rr != nil {
			reports = append(reports, rr)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("model %s: %w", model, err))
		}
	}
	return reports, errors.Join(errs...)
}

// baseDigest returns base's digest, hashing base only when it is not the
// program, at the same entry version, that the last round hashed: an entry
// operation moves the version, and one version never names two sets of
// entries. The caller holds rolloutMu.
func (c *Controller) baseDigest(base *p4ir.Program) p4ir.Digest {
	if v := base.EntryVersion(); base != c.base.prog || v != c.base.version {
		c.base.prog, c.base.version, c.base.digest = base, v, base.Digest()
	}
	return c.base.digest
}

// canaryFor returns the Runtime planning model's rollouts from base. The
// canary is sticky: the Runtime held is kept while its device stays
// eligible, no other rollout deployed to it and it optimizes base;
// otherwise one is built — on the same device while it is eligible, else
// on the group's healthiest — which deploys base there. A device that ran
// another program collected its window on that layout's tables: the
// window is closed unread and the group sits the round out (nil canary,
// nil error).
func (c *Controller) canaryFor(model string, devs []*device, base *p4ir.Program, digest p4ir.Digest) (*canary, error) {
	c.mu.Lock()
	held, d := c.canaries[model], devs[0]
	if sticky := held != nil && slices.Contains(devs, held.dev); sticky && held.base == digest && held.dev.deployCount() == held.deploys {
		c.canaryHits++
		c.mu.Unlock()
		return held, nil
	} else if sticky {
		d = held.dev
	}
	delete(c.canaries, model)
	c.mu.Unlock() // building deploys: Status and probes do not wait on it
	var rt *core.Runtime
	fresh := false
	err := safeCall(func() (err error) {
		ran, ok := digestOf(d.tgt)
		if rt, err = core.NewRuntime(base, d.tgt, c.optCfg); err == nil && (!ok || ran != digest) {
			fresh = true
			_, err = d.tgt.Profile(true)
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("fleet: planning for model %s via %s: %w", model, d.name, err)
	}
	// NewRuntime deployed and committed base.
	cn := &canary{dev: d, base: digest, rt: rt, deploys: d.noteDeploy(true, false, nil, c.policy)}
	c.mu.Lock()
	c.canaryBuilds++
	c.canaries[model] = cn
	c.mu.Unlock()
	if fresh {
		c.logf("optimize: model %s: canary %s ran another layout; planning starts next window", model, d.name)
		return nil, nil
	}
	return cn, nil
}
