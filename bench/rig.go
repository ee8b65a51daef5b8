package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"pipeleon/internal/controlplane"
	"pipeleon/internal/core"
	"pipeleon/internal/fleet"
	"pipeleon/internal/nicsim"
	"pipeleon/internal/opt"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/profile"
	"pipeleon/internal/target"
	"pipeleon/internal/target/remote"
)

// windowSpan is the traffic time one window stands for. OptimizeOnce
// divides update counts by it, so it is a constant, not wall time: the
// optimizer must see the same update rates on every run of a seed.
const windowSpan = time.Second

// device is one managed emulator, the path the loop reaches it by, and
// its reference twin.
type device struct {
	name    string
	nic     *nicsim.NIC
	managed target.Target // Local, or Remote over loopback; span-wrapped in a traced pass
	twin    *nicsim.NIC   // original program, same config, own collector; never optimized
	twinCol *profile.Collector
	srv     *controlplane.Server // fleet only
	ping    *controlplane.Client // fleet only: a second connection for Ping round trips
}

// rig is the system under test for one pass of one workload.
type rig struct {
	w    *workload
	prog *p4ir.Program // the original program
	devs []*device
	rt   *core.Runtime     // local workloads
	ctl  *fleet.Controller // fleet-remote
	rcfg fleet.RolloutConfig
	// sample is the verification batch of the current window; the deploy
	// guard and the rollout verifier both read it through sampler. It is
	// generated outside the round, so every device of a stage measures
	// the same packets whatever order the stage's goroutines run in.
	sample []*packet.Packet
}

func (r *rig) sampler(n int) []*packet.Packet {
	if n > len(r.sample) {
		n = len(r.sample)
	}
	return r.sample[:n]
}

// buildRig is the set-up a user pays before the first window: load the
// program, start the emulator(s), and bring up the runtime — or, for the
// fleet, the control-plane servers, the dialled remotes and the
// controller. It is timed as setup_s; the twins are built separately.
func buildRig(w *workload, in *inputs, deep bool, tr *tracer) (*rig, error) {
	prog, err := w.program(in)
	if err != nil {
		return nil, err
	}
	r := &rig{w: w, prog: prog}
	// fail closes the servers and connections opened so far.
	fail := func(err error) (*rig, error) {
		r.close()
		return nil, err
	}
	cfg := opt.DefaultConfig()
	cfg.DeepVerify = deep
	wrap := func(t target.Target, layer string, publish, cause *atomic.Int64) target.Target {
		if tr == nil {
			return t
		}
		return &tracedTarget{Target: t, tr: tr, layer: layer, publish: publish, cause: cause}
	}
	for i := 0; i < w.devices; i++ {
		col := profile.NewCollector()
		// Clone per device: an emulator owns the program it runs.
		nic, err := nicsim.New(prog.Clone(), nicConfig(in.seed, col, true))
		if err != nil {
			return fail(fmt.Errorf("starting emulator: %w", err))
		}
		d := &device{name: fmt.Sprintf("dev%d", i), nic: nic}
		local := target.NewLocal(nic, col)
		r.devs = append(r.devs, d)
		if w.devices == 1 {
			d.managed = wrap(local, "target", nil, nil)
			continue
		}
		link := new(atomic.Int64)
		d.srv, err = controlplane.NewServer("127.0.0.1:0", nil, col,
			controlplane.WithDevice(wrap(local, "target", nil, link)))
		if err != nil {
			return fail(fmt.Errorf("starting control plane: %w", err))
		}
		rem, err := remote.Dial(d.srv.Addr())
		if err != nil {
			return fail(fmt.Errorf("dialling %s: %w", d.srv.Addr(), err))
		}
		d.managed = wrap(rem, "controlplane", link, nil)
		if d.ping, err = controlplane.Dial(d.srv.Addr()); err != nil {
			return fail(fmt.Errorf("dialling %s: %w", d.srv.Addr(), err))
		}
	}
	if w.devices == 1 {
		r.rt, err = core.NewRuntime(prog, r.devs[0].managed, cfg)
		if err != nil {
			return fail(fmt.Errorf("starting runtime: %w", err))
		}
		guard := core.DefaultDeployGuard(r.sampler)
		guard.VerifyPackets = w.verifyPackets
		r.rt.SetDeployGuard(guard)
		return r, nil
	}
	r.ctl = fleet.New(fleet.Options{Optimizer: cfg})
	for _, d := range r.devs {
		if err := r.ctl.Add(d.name, d.managed); err != nil {
			return fail(err)
		}
	}
	r.rcfg = fleet.DefaultRolloutConfig(r.sampler)
	r.rcfg.Verify.Packets = w.verifyPackets
	// A fresh deploy is verified cold against a warm incumbent; fleet's own
	// tests run with this tolerance. At the 0.2 default every canary after
	// the first halts and the devices end up quarantined (README, exclusions).
	r.rcfg.Verify.MaxRegression = 1.0
	return r, nil
}

// addTwins starts the reference emulators: the original program on a
// separate emulator with the same configuration and its own collector.
// orig overrides the program (the smoke test uses it to trip the oracle).
func (r *rig) addTwins(in *inputs, orig *p4ir.Program) error {
	if orig == nil {
		orig = r.prog
	}
	for _, d := range r.devs {
		d.twinCol = profile.NewCollector()
		twin, err := nicsim.New(orig.Clone(), nicConfig(in.seed, d.twinCol, true))
		if err != nil {
			return fmt.Errorf("starting twin: %w", err)
		}
		d.twin = twin
	}
	return nil
}

// close stops the fleet's connections and servers and waits for their
// goroutines; a local rig holds nothing that outlives it.
func (r *rig) close() {
	for _, d := range r.devs {
		if d.ping != nil {
			d.ping.Close()
		}
		if d.managed != nil && d.srv != nil {
			d.managed.Close()
		}
		if d.srv != nil {
			d.srv.Close()
		}
	}
}

// roundInfo is what one optimization round reported, reduced to what the
// metrics need.
type roundInfo struct {
	searchNs    float64
	searched    bool
	deployed    bool
	skipped     bool
	rolledBack  bool
	breakerOpen bool
	planSize    int
	gainRatio   float64 // realized ÷ predicted relative gain; 0 when not verified
	stages      int
	committed   int      // fleet: devices committed or converged
	attempted   int      // fleet: devices the rollout covered
	failures    []string // errors, deploy errors, halted rollouts
}

// round runs one optimization round: OptimizeOnce on the runtime, or
// OptimizeAndRollout on the fleet.
func (r *rig) round() roundInfo {
	var ri roundInfo
	if r.rt != nil {
		rep, err := r.rt.OptimizeOnce(windowSpan)
		switch {
		case rep.Error != "":
			ri.failures = append(ri.failures, rep.Error)
		case rep.DeployError != "":
			ri.failures = append(ri.failures, rep.DeployError)
		case err != nil:
			ri.failures = append(ri.failures, err.Error())
		}
		ri.searchNs = float64(rep.SearchTime)
		ri.searched = rep.SearchTime > 0
		ri.deployed = rep.Deployed
		ri.skipped = rep.SkippedUnchanged
		ri.rolledBack = rep.RolledBack
		ri.breakerOpen = rep.BreakerOpen
		ri.planSize = rep.PlanSize
		if rep.Deployed && rep.Gain > 0 && rep.BaselineLatency > 0 && rep.VerifyDelta != 0 {
			ri.gainRatio = -rep.VerifyDelta / (rep.Gain / rep.BaselineLatency)
		}
		return ri
	}
	reports, err := r.ctl.OptimizeAndRollout(r.prog, r.rcfg)
	if err != nil {
		ri.failures = append(ri.failures, err.Error())
	}
	for _, rep := range reports {
		if rep.Halted {
			ri.failures = append(ri.failures, "rollout halted: "+rep.HaltReason)
		}
		ri.stages += len(rep.Stages)
		ri.committed += len(rep.Committed)
		ri.attempted += len(rep.Results)
		for _, res := range rep.Results {
			if res.Committed && !res.Converged {
				ri.deployed = true
			}
			if res.RolledBack || res.FleetRolledBack {
				ri.rolledBack = true
			}
		}
	}
	if len(reports) == 0 && err == nil {
		ri.skipped = true
	}
	return ri
}
