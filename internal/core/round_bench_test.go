package core

import (
	"testing"
	"time"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/nicsim"
	"pipeleon/internal/opt"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/profile"
	"pipeleon/internal/synth"
	"pipeleon/internal/target"
	"pipeleon/internal/trafficgen"
)

// The four kinds of round, priced on the 110-table program of the
// end-to-end benchmark's synth-shift workload: the same synthesized
// program and emulator configuration, a local target, and the default
// deploy guard over a 256-packet sample. Only OptimizeOnce is timed; the
// window of traffic before it is not.

type roundRig struct {
	rt     *Runtime
	nic    *nicsim.NIC
	gen    *trafficgen.Generator
	window []*packet.Packet // the one window of traffic every round sees
}

func newRoundRig(b *testing.B, changeThreshold float64) *roundRig {
	b.Helper()
	prog := synth.Program(synth.ProgramSpec{Pipelets: 40, AvgLen: 3, Category: synth.Mixed, Seed: 7})
	col := profile.NewCollector()
	nic, err := nicsim.New(prog.Clone(), nicsim.Config{
		Params: costmodel.BlueField2(), Collector: col, Instrument: true,
		Seed: 5, NoiseStdDev: 0.01, CacheFillCostNs: 500,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := opt.DefaultConfig()
	cfg.ProfileChangeThreshold = changeThreshold
	rt, err := NewRuntime(prog, target.NewLocal(nic, col), cfg)
	if err != nil {
		b.Fatal(err)
	}
	gen := trafficgen.New(11, trafficgen.DefaultPacketBytes)
	gen.AddFlows(trafficgen.UniformFlows(8, 128)...)
	gen.SetSkew(0.9)
	guard := DefaultDeployGuard(gen.Batch)
	// The benches price rounds, not the guard's judgement of this plan: a
	// rolled-back round would blacklist it and change what the following
	// iterations measure.
	guard.MaxRegression, guard.MinRealizedGainFrac = 10, 0
	rt.SetDeployGuard(guard)
	return &roundRig{rt: rt, nic: nic, gen: gen, window: gen.Batch(1024)}
}

// round replays the window, untimed, and times the round after it. The
// same packets every time, so every round of one kind sees one profile.
func (r *roundRig) round(b *testing.B) RoundReport {
	b.Helper()
	b.StopTimer()
	pkts := make([]*packet.Packet, len(r.window))
	for i, p := range r.window {
		pkts[i] = p.Clone()
	}
	r.nic.Measure(pkts)
	b.StartTimer()
	rep, err := r.rt.OptimizeOnce(125 * time.Millisecond)
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

// backToOriginal puts device and runtime back on the original layout, as
// NewRuntime left them, so that the next round has a layout to swap in.
func (r *roundRig) backToOriginal(b *testing.B) {
	b.Helper()
	b.StopTimer()
	defer b.StartTimer()
	rt := r.rt
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if err := rt.tgt.Deploy(rt.orig); err != nil {
		b.Fatal(err)
	}
	if err := rt.tgt.Commit(); err != nil {
		b.Fatal(err)
	}
	rt.setCurrentLocked(rt.orig.Clone(), p4ir.Digest{}, opt.NewCounterMap(), nil)
	// Drop what the verification window counted under the other layout.
	if _, err := rt.tgt.Profile(true); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRoundSkipped: the profile did not move; change detection ends
// the round before the search.
func BenchmarkRoundSkipped(b *testing.B) {
	r := newRoundRig(b, opt.DefaultConfig().ProfileChangeThreshold)
	for warm := 0; warm < 4; warm++ { // deploy, then let the hit rates settle
		r.round(b)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := r.round(b); !rep.SkippedUnchanged {
			b.Fatalf("round %d was not skipped: %+v", i, rep)
		}
	}
}

// BenchmarkRoundKept: the round searches, re-scores the active plan and
// keeps it — no program is built.
func BenchmarkRoundKept(b *testing.B) {
	r := newRoundRig(b, 0)
	if rep := r.round(b); !rep.Deployed {
		b.Fatalf("warm-up round did not deploy: %+v", rep)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := r.round(b); rep.Deployed || rep.ActivePlanGain <= 0 {
			b.Fatalf("round %d was not kept: %+v", i, rep)
		}
	}
}

// deployRounds times rounds that each swap the searched plan in over the
// original layout; firstSight makes the gate forget every verdict, the
// verifier's proofs included, before every round.
func deployRounds(b *testing.B, firstSight bool) {
	r := newRoundRig(b, 0)
	r.round(b)
	r.backToOriginal(b)
	_, missesBefore := r.rt.gate.MemoStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if firstSight {
			r.rt.gate.EntriesChanged()
		}
		if rep := r.round(b); !rep.Deployed || rep.RolledBack {
			b.Fatalf("round %d did not swap the layout: %+v", i, rep)
		}
		r.backToOriginal(b)
	}
	if _, misses := r.rt.gate.MemoStats(); !firstSight && misses != missesBefore {
		b.Fatalf("%d of %d redeploys were of a program the gate had not seen", misses-missesBefore, b.N)
	}
}

// BenchmarkRoundDeployed: the round materializes a program the gate has
// not seen, vets it, measures, swaps and verifies.
func BenchmarkRoundDeployed(b *testing.B) { deployRounds(b, true) }

// BenchmarkRoundRedeployed: the same, for a layout the loop has been on
// before — the gate's verdict is remembered.
func BenchmarkRoundRedeployed(b *testing.B) { deployRounds(b, false) }
