package main

import "pipeleon/internal/stats"

// metricDef names one metric of BENCHMARK.json. The tables below are the
// single list the program emits from; bench_test.go holds BENCHMARK.json
// to them.
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	doc    string
}

// Host = wall time of this machine at the reference speed: divided by the
// slowdown the speed probe measured around the timed region (probe.go).
// Sim = the emulator's modelled nanoseconds, which repeat exactly for a
// seed.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25, "host: median over the set-ups of a run: program load/compile, nicsim.New, core.NewRuntime (session, checker) or servers+dial+fleet.New; twins and traffic generation excluded"},
	{"datapath_mpps", "Mpkt/s", "higher", 0.25, "host: median over windows of packets ÷ wall time of the managed target's Measure calls (over loopback RPC in fleet-remote)"},
	{"round_ms_mean", "ms", "lower", 0.25, "host: mean wall time of one round (OptimizeOnce, or OptimizeAndRollout over all devices): window closed → every device committed, rolled back or confirmed unchanged"},
	{"run_s", "s", "lower", 0.25, "host: managed Measure + rounds + (dash-churn) entry operations over all windows; twin, generation and harness bookkeeping excluded"},
	{"sim_latency_ns", "ns", "lower", 0.06, "sim: mean over windows of the managed devices' mean packet latency"},
	{"sim_gain_pct", "%", "higher", 0.15, "sim: 100·(1 − Σ managed latency ÷ Σ twin latency), the paper's headline"},
	{"sim_tput_gbps", "Gb/s", "higher", 0.06, "sim: mean over windows of modelled throughput"},
	{"model_err_pct", "%", "lower", 0.25, "mean over windows of |costmodel.ExpectedLatency(deployed program, window profile) − measured| ÷ measured"},
	{"live_heap_mb", "MB", "lower", 0.25, "HeapAlloc after runtime.GC() when the workload ends, rig still live"},
}

func median(v []float64) float64 { return stats.Percentile(v, 50) }

func mean(v []float64) float64 { return stats.Mean(v) }

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

func column(wins []windowRec, f func(*windowRec) float64) []float64 {
	out := make([]float64, len(wins))
	for i := range wins {
		out[i] = f(&wins[i])
	}
	return out
}

// The ref* times are a window's wall times at the reference speed: each
// divided by the slowdown of the box while it was taken (probe.go).
func (w *windowRec) refMeasureNs() float64 { return w.measureNs / w.measureSlow }

func (w *windowRec) refRoundNs() float64 { return w.roundNs / w.roundSlow }

// refBusyNs is the time the system under test was busy in the window:
// managed Measure calls, entry operations and the round.
func (w *windowRec) refBusyNs() float64 {
	return (w.measureNs+w.entryNs)/w.measureSlow + w.roundNs/w.roundSlow
}

// runSeconds is the busy time of all windows at the reference speed.
func (p *passResult) runSeconds() float64 {
	return sum(column(p.wins, (*windowRec).refBusyNs)) / 1e9
}

// wallSeconds is the same as this box's clock read it.
func (p *passResult) wallSeconds() float64 {
	return sum(column(p.wins, func(w *windowRec) float64 { return w.measureNs + w.entryNs + w.roundNs })) / 1e9
}

// slowdown is the box's median slowdown over the windows: 1 at the
// reference speed.
func (p *passResult) slowdown() float64 {
	return median(column(p.wins, func(w *windowRec) float64 { return (w.measureSlow + w.roundSlow) / 2 }))
}

// endToEnd computes the gated metrics of one untraced pass.
func endToEnd(setupNs []float64, p *passResult) map[string]float64 {
	managed := sum(column(p.wins, func(w *windowRec) float64 { return w.m.MeanLatencyNs }))
	twin := sum(column(p.wins, func(w *windowRec) float64 { return w.twinLatNs }))
	return map[string]float64{
		"setup_s":        median(setupNs) / 1e9,
		"datapath_mpps":  median(column(p.wins, func(w *windowRec) float64 { return float64(w.packets) / w.refMeasureNs() * 1e3 })),
		"round_ms_mean":  mean(column(p.wins, (*windowRec).refRoundNs)) / 1e6,
		"run_s":          p.runSeconds(),
		"sim_latency_ns": managed / float64(len(p.wins)),
		"sim_gain_pct":   100 * (1 - managed/twin),
		"sim_tput_gbps":  mean(column(p.wins, func(w *windowRec) float64 { return w.m.ThroughputGbps })),
		"model_err_pct":  100 * mean(column(p.wins, func(w *windowRec) float64 { return w.modelErr })),
		"live_heap_mb":   float64(p.heapEnd) / 1e6,
	}
}

// definitions maps every metric to "unit, better: definition", so a result
// file explains itself.
func definitions() map[string]string {
	out := map[string]string{}
	for _, defs := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
		for _, d := range defs {
			out[d.name] = d.unit + ", " + d.better + " is better: " + d.doc
		}
	}
	return out
}
