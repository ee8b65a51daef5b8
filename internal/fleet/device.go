package fleet

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"pipeleon/internal/target"
)

// State is one device's position in the fleet health state machine:
//
//	Healthy ──probe/deploy failures──▶ Degraded ──streak──▶ Quarantined
//	   ▲                                  │                     │ sit-out
//	   │◀───── probation succeeds ── Recovering ◀───────────────┘
//	   (a failure during probation re-quarantines)
//
// Healthy and Degraded devices serve traffic and receive rollouts;
// Quarantined devices are excluded from everything until their sit-out
// expires, then re-probed under probation. The transitions mirror the
// PR-2 circuit breaker: consecutive deploy failures (not probe blips)
// are what mark a device as flapping.
type State int

// States, in degradation order.
const (
	Healthy State = iota
	Degraded
	Quarantined
	Recovering
)

func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Quarantined:
		return "quarantined"
	case Recovering:
		return "recovering"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// The health policy of the per-device state machine: thresholds no caller
// tunes. A controller holds them in a healthPolicy, which a test may
// tighten (export_test.go).
const (
	// probeTimeout bounds one health probe (a hung device must not stall
	// its supervisor loop).
	probeTimeout = 2 * time.Second
	// degradedAfter is the consecutive probe-failure streak that marks a
	// device Degraded.
	degradedAfter = 1
	// quarantineAfter is the consecutive probe-failure streak that
	// quarantines a device.
	quarantineAfter = 3
	// breakerThreshold is the consecutive deploy/verify-failure streak
	// that quarantines a device — the fleet-level analogue of the
	// runtime's redeploy circuit breaker. Probe successes do not reset
	// this streak; only a successful deploy does, so a device that pings
	// fine but keeps failing rollouts is still caught.
	breakerThreshold = 3
	// quarantineProbes is how many probe rounds a quarantined device sits
	// out before probation begins.
	quarantineProbes = 2
	// probationProbes is the consecutive probe successes a Recovering
	// device needs for re-admission to Healthy.
	probationProbes = 2
	// maxProbeBackoff caps the extra probe rounds a failing device sits
	// out between probes (backoff grows with the failure streak).
	maxProbeBackoff = 3
	// restartBudget is how many panics the device's supervised loop
	// absorbs (restarting the loop each time) before the device is
	// permanently quarantined pending manual Recover.
	restartBudget = 3
)

// healthPolicy is the constants above, field by field.
type healthPolicy struct {
	probeTimeout                                       time.Duration
	degradedAfter, quarantineAfter, breakerThreshold   int
	quarantineProbes, probationProbes, maxProbeBackoff int
	restartBudget                                      int
}

var constPolicy = healthPolicy{probeTimeout, degradedAfter, quarantineAfter, breakerThreshold,
	quarantineProbes, probationProbes, maxProbeBackoff, restartBudget}

// device is one supervised fleet member.
type device struct {
	name  string
	tgt   target.Target
	model string

	mu sync.Mutex
	// State machine.
	state            State
	probeConsecFail  int
	deployConsecFail int
	consecOK         int
	sitOut           int // probe rounds to skip (failure backoff or quarantine sit-out)
	permanent        bool
	restarts         int
	lastErr          string
	// Cumulative counters (see DeviceStatus).
	probes, probeFails              uint64
	deploys, deployFails, rollbacks uint64
	commits                         uint64
	quarantines                     uint64
}

// errProbePanic wraps a panic recovered inside a device operation, so the
// supervisor can charge it against the restart budget instead of treating
// it like an ordinary transient failure.
var errProbePanic = errors.New("fleet: device operation panicked")

// noteProbeSuccessLocked applies a successful probe to the state machine.
func (d *device) noteProbeSuccessLocked(pol healthPolicy) {
	d.probeConsecFail = 0
	d.consecOK++
	d.lastErr = ""
	switch d.state {
	case Degraded:
		// Liveness restored. The deploy-failure streak survives: a device
		// that pings fine but flaps rollouts must still hit the breaker.
		d.state = Healthy
	case Recovering:
		if d.consecOK >= pol.probationProbes {
			d.state = Healthy
			d.deployConsecFail = 0
			d.restarts = 0
		}
	}
}

// noteProbeFailureLocked applies a failed probe.
func (d *device) noteProbeFailureLocked(err error, pol healthPolicy) {
	d.consecOK = 0
	d.probeConsecFail++
	d.lastErr = err.Error()
	switch d.state {
	case Recovering:
		// Failed probation: back to quarantine for another sit-out.
		d.enterQuarantineLocked(pol)
	case Healthy, Degraded:
		if d.probeConsecFail >= pol.quarantineAfter {
			d.enterQuarantineLocked(pol)
			return
		}
		if d.probeConsecFail >= pol.degradedAfter {
			d.state = Degraded
		}
		// Probe backoff: failing devices are probed less often.
		if back := d.probeConsecFail - 1; back > 0 {
			if back > pol.maxProbeBackoff {
				back = pol.maxProbeBackoff
			}
			d.sitOut = back
		}
	}
}

// noteDeploySuccessLocked resets the breaker streak after a committed
// rollout deploy.
func (d *device) noteDeploySuccessLocked() {
	d.deployConsecFail = 0
	if d.state == Degraded && d.probeConsecFail == 0 {
		d.state = Healthy
	}
}

// noteDeployFailureLocked counts a failed or verify-rolled-back rollout
// deploy toward the breaker.
func (d *device) noteDeployFailureLocked(err error, pol healthPolicy) {
	d.consecOK = 0
	d.deployConsecFail++
	d.lastErr = err.Error()
	switch d.state {
	case Recovering:
		d.enterQuarantineLocked(pol)
	case Healthy, Degraded:
		if d.deployConsecFail >= pol.breakerThreshold {
			d.enterQuarantineLocked(pol)
			return
		}
		d.state = Degraded
	}
}

// noteDeploy applies one deploy transaction — a rollout's deployOne or a
// canary Runtime's round — to the counters and the state machine: deployed
// and rolledBack say what reached the device, err whether the transaction
// failed. It returns the device's deploy count.
func (d *device) noteDeploy(deployed, rolledBack bool, err error, pol healthPolicy) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if deployed {
		d.deploys++
	}
	if rolledBack {
		d.rollbacks++
	}
	if err != nil {
		d.deployFails++
		d.noteDeployFailureLocked(err, pol)
	} else if deployed {
		d.commits++
		d.noteDeploySuccessLocked()
	}
	return d.deploys
}

// deployCount returns how many deploys reached the device.
func (d *device) deployCount() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.deploys
}

func (d *device) enterQuarantineLocked(pol healthPolicy) {
	d.state = Quarantined
	d.quarantines++
	d.sitOut = pol.quarantineProbes
	d.probeConsecFail = 0
	d.consecOK = 0
}

// probe runs one health probe with a deadline, recovering panics. The
// probe goroutine may outlive the deadline (a truly hung backend call
// cannot be cancelled), but the buffered channel lets it finish and be
// collected whenever the backend returns.
func (d *device) probe(timeout time.Duration) error {
	errc := make(chan error, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				errc <- fmt.Errorf("%w: %v", errProbePanic, r)
			}
		}()
		_, err := d.tgt.Profile(false)
		errc <- err
	}()
	select {
	case err := <-errc:
		return err
	case <-time.After(timeout):
		return fmt.Errorf("fleet: %s: probe timed out after %s", d.name, timeout)
	}
}

// safeCall runs fn, converting a panic into an error — panic isolation
// for rollout-path device operations, so one buggy backend cannot take
// the controller down with it.
func safeCall(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", errProbePanic, r)
		}
	}()
	return fn()
}
