package experiments

import (
	"fmt"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/opt"
	"pipeleon/internal/pipelet"
	"pipeleon/internal/stats"
	"pipeleon/internal/synth"
)

// Figures 18-19 (appendix A.3): traffic-distribution entropy.

// Fig18 shows one program's pipelet traffic distribution at the
// 10th/50th/90th entropy percentiles of randomly synthesized profiles.
func Fig18(opts RunOpts) *Result {
	res := &Result{
		ID: "fig18", Title: "pipelet traffic distribution by entropy percentile",
		XLabel: "pipelet ID", YLabel: "traffic fraction",
	}
	prog := synth.Program(synth.ProgramSpec{Pipelets: 12, AvgLen: 2, Category: synth.Mixed, Seed: opts.Seed + 1})
	nProfiles := opts.pick(2000, 100)
	maxLen := opt.DefaultConfig().MaxPipeletLen
	profs, ents := synth.ProfileBatch(prog, opts.Seed+5, nProfiles, synth.Mixed, maxLen)
	part, err := pipelet.Form(prog, maxLen)
	if err != nil {
		panic(err)
	}
	for _, q := range []float64{10, 50, 90} {
		prof := synth.PickEntropyPercentile(profs, ents, q)
		dist := pipelet.TrafficDistribution(prog, prof, part)
		var xs, ys []float64
		for i, d := range dist {
			xs = append(xs, float64(i+1))
			ys = append(ys, d)
		}
		res.AddSeries(fmt.Sprintf("entropy-p%.0f", q), xs, ys)
	}
	res.Note("low entropy concentrates traffic on few pipelets; the root pipelet always carries 100%% of arrivals")
	return res
}

// Fig19 reports the ESearch throughput improvement (baseline latency /
// optimized latency) across programs at the three entropy levels.
func Fig19(opts RunOpts) *Result {
	res := &Result{
		ID: "fig19", Title: "ESearch gain by traffic entropy",
		XLabel: "percentile", YLabel: "throughput improvement (x)",
	}
	pm := costmodel.EmulatedNIC()
	nProgs := opts.pick(30, 6)
	nProfiles := opts.pick(200, 30)
	maxLen := opt.DefaultConfig().MaxPipeletLen
	entropies := []float64{10, 50, 90}
	improvements := make([][]float64, len(entropies))
	for i := 0; i < nProgs; i++ {
		seed := opts.Seed + uint64(i)*401
		prog := synth.Program(synth.ProgramSpec{Pipelets: 12, AvgLen: 2, Category: synth.Mixed, Seed: seed})
		profs, ents := synth.ProfileBatch(prog, seed+5, nProfiles, synth.Mixed, maxLen)
		for ei, q := range entropies {
			prof := synth.PickEntropyPercentile(profs, ents, q)
			cfg := opt.DefaultConfig()
			cfg.TopKFrac = 1
			cfg.CacheInsertLimit = 0
			sr := search(prog, prof, pm, cfg)
			if sr.BaselineLatency <= 0 {
				continue
			}
			after := sr.BaselineLatency - sr.Gain
			if after <= 0 {
				continue
			}
			improvements[ei] = append(improvements[ei], sr.BaselineLatency/after)
		}
	}
	percentiles := []float64{10, 25, 50, 75, 90}
	var means []string
	for ei, q := range entropies {
		var xs, ys []float64
		for _, p := range percentiles {
			xs = append(xs, p)
			ys = append(ys, stats.Percentile(improvements[ei], p))
		}
		res.AddSeries(fmt.Sprintf("entropy-p%.0f", q), xs, ys)
		means = append(means, fmt.Sprintf("%.2fx", stats.Mean(improvements[ei])))
	}
	res.Note("mean improvement by entropy level: %v (paper: 1.32x / 1.37x / 1.43x)", means)
	return res
}
