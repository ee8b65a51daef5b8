package experiments

import (
	"fmt"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/opt"
	"pipeleon/internal/stats"
	"pipeleon/internal/synth"
)

// Figures 13-15: the top-k pipelet optimization study (§5.4.2-§5.4.4).
// Absolute times are milliseconds here (Go, laptop) instead of the
// paper's seconds (Python), but the relationships — ESearch ≫ top-k, and
// top-k capturing most of ESearch's gain — are what the figures assert.

// Fig13: optimization-time distributions for k = 20/30/40/100% over three
// (PN, PL) program groups.
func Fig13(opts RunOpts) *Result {
	res := &Result{
		ID: "fig13", Title: "optimization turnaround time vs top-k",
		XLabel: "percentile", YLabel: "search time (ms)",
	}
	pm := costmodel.EmulatedNIC()
	groups := []struct {
		name string
		pn   int
		pl   float64
	}{
		{"PN12-PL2", 12, 2.0},
		{"PN13-PL3", 13, 3.0},
		{"PN15-PL3", 15, 3.0},
	}
	ks := []float64{0.2, 0.3, 0.4, 1.0}
	nProgs := opts.pick(100, 8)
	percentiles := []float64{10, 25, 50, 75, 90}
	var speedups []float64
	for _, g := range groups {
		times := map[float64][]float64{}
		for i := 0; i < nProgs; i++ {
			seed := opts.Seed + uint64(i)*101 + uint64(g.pn)*17
			prog := synth.Program(synth.ProgramSpec{Pipelets: g.pn, AvgLen: g.pl, Category: synth.Mixed, Seed: seed})
			prof := synth.SynthesizeProfile(prog, synth.ProfileSpec{Seed: seed + 3, Category: synth.Mixed})
			for _, k := range ks {
				cfg := opt.DefaultConfig()
				cfg.TopKFrac = k
				cfg.CacheInsertLimit = 0
				sr := search(prog, prof, pm, cfg)
				times[k] = append(times[k], float64(sr.Elapsed.Microseconds())/1000)
			}
		}
		for _, k := range ks {
			var xs, ys []float64
			for _, p := range percentiles {
				xs = append(xs, p)
				ys = append(ys, stats.Percentile(times[k], p))
			}
			res.AddSeries(fmt.Sprintf("%s-k%.0f%%", g.name, k*100), xs, ys)
		}
		med20 := stats.Percentile(times[0.2], 50)
		med100 := stats.Percentile(times[1.0], 50)
		if med20 > 0 {
			speedups = append(speedups, med100/med20)
		}
	}
	res.Note("median ESearch/top-20%% time ratios per group: %v (paper reports 8.2x overall)", fmtFloats(speedups))
	return res
}

func fmtFloats(v []float64) []string {
	out := make([]string, len(v))
	for i, f := range v {
		out[i] = fmt.Sprintf("%.1fx", f)
	}
	return out
}

// Fig14: top-k gain as a fraction of ESearch gain, at the 10th/50th/90th
// entropy profiles (§5.4.3).
func Fig14(opts RunOpts) *Result {
	res := &Result{
		ID: "fig14", Title: "top-k gain / ESearch gain by traffic entropy",
		XLabel: "k (%)", YLabel: "mean gain ratio",
	}
	pm := costmodel.EmulatedNIC()
	nProgs := opts.pick(30, 5)
	nProfiles := opts.pick(200, 30)
	ks := []float64{0.2, 0.3, 0.4, 0.5}
	entropies := []float64{10, 50, 90}

	ratios := map[[2]int][]float64{} // {entropyIdx, kIdx} -> ratios
	for i := 0; i < nProgs; i++ {
		seed := opts.Seed + uint64(i)*211
		prog := synth.Program(synth.ProgramSpec{Pipelets: 12, AvgLen: 2, Category: synth.Mixed, Seed: seed})
		profs, ents := synth.ProfileBatch(prog, seed+5, nProfiles, synth.Mixed, opt.DefaultConfig().MaxPipeletLen)
		for ei, q := range entropies {
			prof := synth.PickEntropyPercentile(profs, ents, q)
			cfgE := opt.DefaultConfig()
			cfgE.TopKFrac = 1
			cfgE.CacheInsertLimit = 0
			esr := search(prog, prof, pm, cfgE)
			if esr.Gain <= 0 {
				continue
			}
			for ki, k := range ks {
				cfg := cfgE
				cfg.TopKFrac = k
				sr := search(prog, prof, pm, cfg)
				ratios[[2]int{ei, ki}] = append(ratios[[2]int{ei, ki}], sr.Gain/esr.Gain)
			}
		}
	}
	for ei, q := range entropies {
		var xs, ys []float64
		for ki, k := range ks {
			xs = append(xs, k*100)
			ys = append(ys, stats.Mean(ratios[[2]int{ei, ki}]))
		}
		res.AddSeries(fmt.Sprintf("entropy-p%.0f", q), xs, ys)
	}
	// Fraction of programs achieving >= 0.7 of ESearch at k=20%, 10th
	// entropy (the paper's headline claim).
	r := ratios[[2]int{0, 0}]
	var above int
	for _, v := range r {
		if v >= 0.7 {
			above++
		}
	}
	if len(r) > 0 {
		res.Note("at 10th-entropy, k=20%%: %.0f%% of programs reach >= 70%% of ESearch gain (paper: all)", float64(above)/float64(len(r))*100)
	}
	return res
}

// Fig15: cross-pipelet (group) optimization on programs dominated by
// one-table pipelets (§5.4.4).
func Fig15(opts RunOpts) *Result {
	res := &Result{
		ID: "fig15", Title: "pipelet-group optimization benefit",
		XLabel: "top-k (%)", YLabel: "latency reduction (%)",
	}
	pm := costmodel.EmulatedNIC()
	nProgs := opts.pick(60, 8)
	ks := []float64{0.4, 0.5, 0.6}
	var withG, withoutG [][]float64
	withG = make([][]float64, len(ks))
	withoutG = make([][]float64, len(ks))
	for i := 0; i < nProgs; i++ {
		seed := opts.Seed + uint64(i)*307
		prog := synth.Program(synth.ProgramSpec{Pipelets: 13, AvgLen: 1, Category: synth.HighLocality, Seed: seed, DiamondOnly: true})
		prof := synth.SynthesizeProfile(prog, synth.ProfileSpec{Seed: seed + 9, Category: synth.HighLocality})
		for ki, k := range ks {
			for _, groups := range []bool{true, false} {
				cfg := opt.DefaultConfig()
				cfg.TopKFrac = k
				cfg.EnableGroups = groups
				cfg.CacheInsertLimit = 0
				sr := search(prog, prof, pm, cfg)
				red := 0.0
				if sr.BaselineLatency > 0 {
					red = sr.Gain / sr.BaselineLatency * 100
				}
				if groups {
					withG[ki] = append(withG[ki], red)
				} else {
					withoutG[ki] = append(withoutG[ki], red)
				}
			}
		}
	}
	var xs, yw, yo []float64
	for ki, k := range ks {
		xs = append(xs, k*100)
		yw = append(yw, stats.Mean(withG[ki]))
		yo = append(yo, stats.Mean(withoutG[ki]))
	}
	res.AddSeries("with-groups", xs, yw)
	res.AddSeries("without-groups", xs, yo)
	res.Note("grouping adds latency reduction on top of per-pipelet optimization (paper: +6.7%% average, up to 37.9%% total at k=60%%)")
	return res
}
