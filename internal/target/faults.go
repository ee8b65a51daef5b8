package target

import (
	"errors"
	"time"

	"pipeleon/internal/faultinject"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/profile"
)

// WithFaults wraps tgt so every device operation consults inj at its one
// fault point — the only place device faults are injected, whatever the
// backend (Local, Remote, Replayer) behind it:
//
//   - Deploy and Rollback consult PointDeploy: both are program swaps.
//     Delay stalls the swap; Fail refuses it, leaving the staging as it
//     was; Silent reports success while the device keeps running what it
//     runs (a Deploy re-stages the running program, so a checkpoint
//     exists; a Rollback commits the staged one).
//   - Profile consults PointCounters. Fail answers an error without
//     reaching the device; Zero reads the device (so reset still closes
//     its window) and answers an empty profile.
//   - Measure consults PointMeasure. Fail rejects the measurement; Scale
//     multiplies the measured latencies, a deploy that really regressed.
//
// Delay stalls the operation at every point. A nil inj returns tgt.
func WithFaults(tgt Target, inj faultinject.Injector) Target {
	if inj == nil {
		return tgt
	}
	return &faulty{Target: tgt, inj: inj}
}

type faulty struct {
	Target
	inj faultinject.Injector
}

func (f *faulty) at(p faultinject.Point) faultinject.Decision {
	d := f.inj.At(p)
	if d.Delay > 0 {
		time.Sleep(d.Delay)
	}
	return d
}

func (f *faulty) Deploy(prog *p4ir.Program) error {
	switch d := f.at(faultinject.PointDeploy); {
	case d.Fail:
		return d.Error()
	case d.Silent:
		running := f.Target.Program()
		if running == nil {
			return errors.New("target: silent deploy: the running program is unreadable")
		}
		return f.Target.Deploy(running)
	}
	return f.Target.Deploy(prog)
}

func (f *faulty) Rollback() error {
	switch d := f.at(faultinject.PointDeploy); {
	case d.Fail:
		return d.Error()
	case d.Silent:
		return f.Target.Commit()
	}
	return f.Target.Rollback()
}

func (f *faulty) Profile(reset bool) (*profile.Profile, error) {
	d := f.at(faultinject.PointCounters)
	if d.Fail {
		return nil, d.Error()
	}
	p, err := f.Target.Profile(reset)
	if err == nil && d.Zero {
		p = profile.New()
	}
	return p, err
}

func (f *faulty) Measure(pkts []*packet.Packet) (Measurement, error) {
	d := f.at(faultinject.PointMeasure)
	if d.Fail {
		return Measurement{}, d.Error()
	}
	m, err := f.Target.Measure(pkts)
	if err == nil && d.Scale > 0 {
		m.MeanLatencyNs *= d.Scale
		m.P99LatencyNs *= d.Scale
	}
	return m, err
}
