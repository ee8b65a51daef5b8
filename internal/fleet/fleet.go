// Package fleet is the Pipeleon fleet controller: it owns many
// target.Targets at once — in-process emulators, remote nicd devices, or
// a mix — and layers the reliability machinery a hundreds-of-NICs
// deployment needs on top of the single-device runtime:
//
//   - a supervised health loop per device (panic isolation, probe
//     timeouts, restart budget),
//   - a Healthy → Degraded → Quarantined → Recovering state machine with
//     circuit-breaker semantics for flapping devices and probation-based
//     re-admission (device.go),
//   - staged rollouts: canary first, then exponentially growing waves,
//     with per-device measured-regression verification and an automatic
//     fleet-wide halt-and-rollback when the failure ratio crosses a
//     threshold (rollout.go),
//   - fleet optimization rounds: one canary per device model is profiled,
//     the profile searched on a warm optimizer session held per (program
//     digest, model), and the result staged across the fleet; a round that
//     finds the plan already running deploys nothing (sessions.go).
//
// The controller degrades gracefully: quarantined devices are excluded
// from rollouts and the rest of the fleet keeps serving; recovered
// devices are converged back onto the fleet program.
//
// cmd/fleetd exposes the controller over HTTP; `p4cctl fleet` is the
// operator CLI. The package depends on target and the optimizer but —
// enforced by cmd/archlint — never on the emulator: simulated fleets are
// assembled by callers and handed in as Targets.
package fleet

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"pipeleon/internal/opt"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/target"
)

// Options configures a Controller.
type Options struct {
	// Policy is the device health policy; zero value → DefaultHealthPolicy.
	Policy HealthPolicy
	// Optimizer configures plan search for OptimizeAndRollout.
	Optimizer opt.Config
	// Logf, when set, receives human-readable progress lines.
	Logf func(format string, args ...any)
}

// Controller owns a fleet of devices. All methods are safe for concurrent
// use; rollouts are serialized with each other.
type Controller struct {
	policy   HealthPolicy
	optCfg   opt.Config
	sessions *sessionPool
	logf     func(string, ...any)

	mu      sync.Mutex
	devices []*device // registration order
	byName  map[string]*device

	// Fleet-level counters (reported in Status).
	rollouts       uint64
	haltedRollouts uint64
	fleetRollbacks uint64

	rolloutMu sync.Mutex // serializes rollouts
}

// New returns a Controller with no devices.
func New(opts Options) *Controller {
	pol := opts.Policy
	if pol == (HealthPolicy{}) {
		pol = DefaultHealthPolicy()
	}
	if pol.ProbeTimeout <= 0 {
		pol.ProbeTimeout = 2 * time.Second
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Controller{
		policy:   pol,
		optCfg:   opts.Optimizer,
		sessions: newSessionPool(),
		logf:     logf,
		byName:   map[string]*device{},
	}
}

// Add registers a device under a unique name. Devices start Healthy.
func (c *Controller) Add(name string, tgt target.Target) error {
	if name == "" {
		return fmt.Errorf("fleet: device name must not be empty")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.byName[name]; dup {
		return fmt.Errorf("fleet: device %q already registered", name)
	}
	d := &device{name: name, tgt: tgt, model: tgt.Capabilities().Model}
	c.devices = append(c.devices, d)
	c.byName[name] = d
	return nil
}

// snapshotDevices returns the device list in registration order.
func (c *Controller) snapshotDevices() []*device {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*device(nil), c.devices...)
}

// lookup finds a device by name.
func (c *Controller) lookup(name string) (*device, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.byName[name]
	if !ok {
		return nil, fmt.Errorf("fleet: unknown device %q", name)
	}
	return d, nil
}

// ProbeAll runs one synchronous probe round over every device: each
// device is probed on its own goroutine (with the policy's timeout) and
// the round has a barrier, so callers — tests, the simulator, fleetd's
// scripted scenarios — get deterministic state-machine steps. The
// supervised Run loop performs the same per-device work on a ticker.
func (c *Controller) ProbeAll() {
	devs := c.snapshotDevices()
	var wg sync.WaitGroup
	for _, d := range devs {
		wg.Add(1)
		go func(d *device) {
			defer wg.Done()
			c.probeDevice(d)
		}(d)
	}
	wg.Wait()
}

// probeDevice runs one probe step for one device, honouring sit-outs and
// charging panics against the restart budget.
func (c *Controller) probeDevice(d *device) {
	d.mu.Lock()
	if d.permanent {
		d.mu.Unlock()
		return
	}
	if d.sitOut > 0 {
		d.sitOut--
		d.mu.Unlock()
		return
	}
	if d.state == Quarantined {
		// Sit-out served: begin probation with this probe.
		d.state = Recovering
		d.consecOK = 0
	}
	d.mu.Unlock()

	err := d.probe(c.policy.ProbeTimeout)

	d.mu.Lock()
	defer d.mu.Unlock()
	d.probes++
	if err == nil {
		d.noteProbeSuccessLocked(c.policy)
		return
	}
	d.probeFails++
	if isPanicErr(err) {
		// A panicking backend is charged against the restart budget: the
		// supervisor "restarts" the device loop, and once the budget is
		// exhausted the device is quarantined permanently (until an
		// operator Recover).
		d.restarts++
		if d.restarts > c.policy.RestartBudget {
			d.permanent = true
			d.enterQuarantineLocked(c.policy)
			d.lastErr = fmt.Sprintf("restart budget exhausted (%d panics): %v", d.restarts, err)
			return
		}
	}
	d.noteProbeFailureLocked(err, c.policy)
}

// Run drives the supervised per-device probe loops until stop is closed.
// Each device gets its own goroutine ticking at interval; a panic inside
// a probe is already isolated by probeDevice, so one broken backend can
// never take down the controller or its siblings.
func (c *Controller) Run(interval time.Duration, stop <-chan struct{}) {
	if interval <= 0 {
		interval = time.Second
	}
	devs := c.snapshotDevices()
	var wg sync.WaitGroup
	for _, d := range devs {
		wg.Add(1)
		go func(d *device) {
			defer wg.Done()
			ticker := time.NewTicker(interval)
			defer ticker.Stop()
			for {
				select {
				case <-stop:
					return
				case <-ticker.C:
					c.probeDevice(d)
				}
			}
		}(d)
	}
	wg.Wait()
}

// Quarantine forces a device into quarantine (operator action). The
// device sits out the usual cooldown, then re-enters via probation like
// any other quarantined device.
func (c *Controller) Quarantine(name string) error {
	d, err := c.lookup(name)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state != Quarantined {
		d.enterQuarantineLocked(c.policy)
		d.lastErr = "quarantined by operator"
	}
	return nil
}

// Recover lifts a quarantine immediately (operator action): the device is
// placed on probation with a fresh restart budget, skipping the sit-out.
func (c *Controller) Recover(name string) error {
	d, err := c.lookup(name)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.state = Recovering
	d.permanent = false
	d.restarts = 0
	d.sitOut = 0
	d.consecOK = 0
	d.probeConsecFail = 0
	d.deployConsecFail = 0
	return nil
}

// eligibleDevices returns the rollout-eligible devices (Healthy first,
// then Degraded, each in registration order — so the canary is always the
// healthiest available device) and the names of the skipped ones.
func (c *Controller) eligibleDevices() (eligible []*device, skipped []string) {
	var degraded []*device
	for _, d := range c.snapshotDevices() {
		d.mu.Lock()
		st := d.state
		d.mu.Unlock()
		switch st {
		case Healthy:
			eligible = append(eligible, d)
		case Degraded:
			degraded = append(degraded, d)
		default:
			skipped = append(skipped, d.name)
		}
	}
	eligible = append(eligible, degraded...)
	return eligible, skipped
}

// modelGroups partitions eligible devices by device model, sorted by
// model name for deterministic iteration.
func modelGroups(devs []*device) []struct {
	Model string
	Devs  []*device
} {
	byModel := map[string][]*device{}
	for _, d := range devs {
		byModel[d.model] = append(byModel[d.model], d)
	}
	models := make([]string, 0, len(byModel))
	for m := range byModel {
		models = append(models, m)
	}
	sort.Strings(models)
	out := make([]struct {
		Model string
		Devs  []*device
	}, 0, len(models))
	for _, m := range models {
		out = append(out, struct {
			Model string
			Devs  []*device
		}{m, byModel[m]})
	}
	return out
}

// isPanicErr reports whether err wraps a recovered device panic.
func isPanicErr(err error) bool {
	for e := err; e != nil; {
		if e == errProbePanic {
			return true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		e = u.Unwrap()
	}
	return false
}

// digestOf returns the content digest of a device's running program; ok is
// false when the device cannot name it.
func digestOf(tgt target.Target) (d p4ir.Digest, ok bool) {
	err := safeCall(func() (err error) {
		d, err = tgt.Digest()
		return err
	})
	return d, err == nil
}
