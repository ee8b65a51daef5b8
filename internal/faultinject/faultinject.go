// Package faultinject is a deterministic fault-injection harness for the
// runtime loop, the devices it drives, and the control-plane wire. An
// instrumented site asks an Injector what should go wrong at a named
// Point; production code paths carry a nil Injector and pay only a nil
// check.
//
// Each point is consulted by exactly one layer, and a Decision means one
// thing there:
//
//	point       consulted by                         fields read
//	deploy      target.WithFaults: Deploy, Rollback  Delay, Fail, Silent
//	counters    target.WithFaults: Profile           Delay, Fail, Zero
//	measure     target.WithFaults: Measure           Delay, Fail, Scale
//	conn.read   controlplane.Server, each request    Delay, Drop
//	conn.write  controlplane.Server, each response   Delay, Drop
//	plan        core.Runtime, after plan search      Fail, Scale
//
// Two implementations are provided: Script replays an exact, per-point
// queue of decisions (for reproducible fault-matrix tests), and Random
// draws faults from per-point probabilities with a seeded deterministic
// RNG (for chaos-style soak runs, reproducible by seed).
package faultinject

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pipeleon/internal/stats"
)

// Point identifies one instrumented fault site.
type Point string

// Instrumented sites; the package doc says who consults each.
const (
	// PointDeploy: a program swap, deploy or rollback. Silent reports
	// success while the device keeps running what it ran.
	PointDeploy Point = "deploy"
	// PointConnRead: the server has read a request frame.
	PointConnRead Point = "conn.read"
	// PointConnWrite: the server is about to write a response frame.
	// Dropping here models the ambiguous "applied but unacknowledged"
	// failure idempotency keys exist for.
	PointConnWrite Point = "conn.write"
	// PointCounters: a profile read, the runtime's window or a fleet
	// health probe. Zero serves an empty (stale/wiped) window.
	PointCounters Point = "counters"
	// PointPlan: the runtime's plan search has answered. Fail fails the
	// search; Scale inflates the predicted gain to model cost-model
	// misprediction.
	PointPlan Point = "plan"
	// PointMeasure: a device measurement, such as a verification window.
	// Scale inflates the measured latencies to model a deploy that
	// regressed.
	PointMeasure Point = "measure"
)

// Decision tells an instrumented site what to do. The zero value injects
// nothing. A site reads only the fields the package doc's table gives its
// point and ignores the rest.
type Decision struct {
	// Fail makes the operation return Err (or a generic injected error).
	Fail bool
	// Silent makes a swap report success without applying — the
	// mid-deploy crash that leaves the device on the program it ran.
	Silent bool
	// Drop makes the server abandon the connection.
	Drop bool
	// Zero serves an empty (stale/wiped) counter window.
	Zero bool
	// Delay stalls the operation before proceeding.
	Delay time.Duration
	// Scale, when > 0, multiplies a plan's predicted gain (plan) or a
	// measurement's latencies (measure).
	Scale float64
	// Err overrides the error returned when Fail is set.
	Err error
}

// None reports whether the decision injects nothing.
func (d Decision) None() bool {
	return !d.Fail && !d.Silent && !d.Drop && !d.Zero && d.Delay == 0 && d.Scale == 0
}

// Error returns the failure error for a Fail decision.
func (d Decision) Error() error {
	if d.Err != nil {
		return d.Err
	}
	return errors.New("faultinject: injected failure")
}

// Injector is consulted at each fault point. Implementations must be safe
// for concurrent use. A nil Injector injects nothing.
type Injector interface {
	At(p Point) Decision
}

// At is the nil-safe way to consult an injector.
func At(inj Injector, p Point) Decision {
	if inj == nil {
		return Decision{}
	}
	return inj.At(p)
}

// Script replays queued decisions per point, in order; once a point's
// queue drains, further At calls inject nothing. Safe for concurrent use.
type Script struct {
	mu    sync.Mutex
	queue map[Point][]Decision
}

// NewScript returns an empty script.
func NewScript() *Script {
	return &Script{queue: map[Point][]Decision{}}
}

// Queue appends decisions to a point's replay queue.
func (s *Script) Queue(p Point, ds ...Decision) *Script {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.queue[p] = append(s.queue[p], ds...)
	return s
}

// At pops the next decision for p (zero Decision once drained).
func (s *Script) At(p Point) Decision {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.queue[p]
	if len(q) == 0 {
		return Decision{}
	}
	d := q[0]
	s.queue[p] = q[1:]
	return d
}

// Pending returns how many decisions remain queued at p.
func (s *Script) Pending(p Point) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue[p])
}

// Prob configures the per-consultation fault probabilities of one point
// for the Random injector. At most one fault fires per consultation,
// checked in field order.
type Prob struct {
	Fail   float64
	Silent float64
	Drop   float64
	Zero   float64
	// DelayProb injects a stall of Delay.
	DelayProb float64
	Delay     time.Duration
	// ScaleProb injects a gain misprediction of factor Scale.
	ScaleProb float64
	Scale     float64
}

// Random injects faults probabilistically from a seeded deterministic
// stream: the same seed and consultation order reproduce the same faults.
type Random struct {
	mu    sync.Mutex
	rng   *stats.RNG
	probs map[Point]Prob
}

// newRandom builds a probabilistic injector.
func newRandom(seed uint64, probs map[Point]Prob) *Random {
	cp := make(map[Point]Prob, len(probs))
	for k, v := range probs {
		cp[k] = v
	}
	return &Random{rng: stats.NewRNG(seed), probs: cp}
}

// At draws one decision for p.
func (r *Random) At(p Point) Decision {
	r.mu.Lock()
	defer r.mu.Unlock()
	pr, ok := r.probs[p]
	if !ok {
		return Decision{}
	}
	u := r.rng.Float64()
	var d Decision
	switch {
	case u < pr.Fail:
		d = Decision{Fail: true}
	case u < pr.Fail+pr.Silent:
		d = Decision{Silent: true}
	case u < pr.Fail+pr.Silent+pr.Drop:
		d = Decision{Drop: true}
	case u < pr.Fail+pr.Silent+pr.Drop+pr.Zero:
		d = Decision{Zero: true}
	case u < pr.Fail+pr.Silent+pr.Drop+pr.Zero+pr.DelayProb:
		d = Decision{Delay: pr.Delay}
	case u < pr.Fail+pr.Silent+pr.Drop+pr.Zero+pr.DelayProb+pr.ScaleProb:
		d = Decision{Scale: pr.Scale}
	}
	return d
}

// ParseSpec builds a Random injector from a compact CLI spec:
//
//	point.mode=prob[,point.mode=prob...]
//
// e.g. "deploy.fail=0.1,conn.write.drop=0.05,counters.zero=0.02,
// plan.scale=0.1:20,conn.read.delay=0.1:50ms". Modes: fail, silent,
// drop, zero, delay (prob:duration), scale (prob:factor). An empty spec
// returns a nil Injector.
func ParseSpec(spec string, seed uint64) (Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	probs := map[Point]Prob{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("faultinject: bad spec element %q (want point.mode=prob)", part)
		}
		dot := strings.LastIndex(kv[0], ".")
		if dot <= 0 {
			return nil, fmt.Errorf("faultinject: bad spec key %q (want point.mode)", kv[0])
		}
		point, mode := Point(kv[0][:dot]), kv[0][dot+1:]
		if !knownPoint(point) {
			return nil, fmt.Errorf("faultinject: unknown point %q (known: %s)", point, knownPoints())
		}
		val := kv[1]
		arg := ""
		if i := strings.Index(val, ":"); i >= 0 {
			val, arg = val[:i], val[i+1:]
		}
		prob, err := strconv.ParseFloat(val, 64)
		if err != nil || prob < 0 || prob > 1 {
			return nil, fmt.Errorf("faultinject: bad probability %q in %q", kv[1], part)
		}
		pr := probs[point]
		switch mode {
		case "fail":
			pr.Fail = prob
		case "silent":
			pr.Silent = prob
		case "drop":
			pr.Drop = prob
		case "zero":
			pr.Zero = prob
		case "delay":
			d, err := time.ParseDuration(arg)
			if err != nil {
				return nil, fmt.Errorf("faultinject: delay needs prob:duration in %q", part)
			}
			pr.DelayProb, pr.Delay = prob, d
		case "scale":
			f, err := strconv.ParseFloat(arg, 64)
			if err != nil || f <= 0 {
				return nil, fmt.Errorf("faultinject: scale needs prob:factor in %q", part)
			}
			pr.ScaleProb, pr.Scale = prob, f
		default:
			return nil, fmt.Errorf("faultinject: unknown mode %q in %q", mode, part)
		}
		probs[point] = pr
	}
	return newRandom(seed, probs), nil
}

func knownPoint(p Point) bool {
	switch p {
	case PointDeploy, PointConnRead, PointConnWrite, PointCounters, PointPlan, PointMeasure:
		return true
	}
	return false
}

func knownPoints() string {
	pts := []string{string(PointDeploy), string(PointConnRead), string(PointConnWrite), string(PointCounters), string(PointPlan), string(PointMeasure)}
	sort.Strings(pts)
	return strings.Join(pts, ", ")
}
