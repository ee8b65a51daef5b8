package experiments

import (
	"fmt"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/opt"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/profile"
	"pipeleon/internal/synth"
)

// Fig10 measures Pipeleon's model-estimated latency reduction on
// synthesized single-pipelet programs in three categories (heavy packet
// drop, small static tables, high traffic locality) across pipelet-length
// groups 1–2 / 2–3 / 3–4, one optimization technique at a time (§5.2.2).
// The paper reports 27–52% overall reduction with merging weakest
// (capped at two tables).
func Fig10(opts RunOpts) *Result {
	res := &Result{
		ID: "fig10", Title: "synthesized programs: latency reduction by category and technique",
		XLabel: "pipelet length group (0=1-2, 1=2-3, 2=3-4)", YLabel: "latency reduction (%)",
	}
	pm := costmodel.EmulatedNIC()
	nProgs := opts.pick(100, 10)
	groups := []struct {
		name   string
		avgLen float64
	}{
		{"PL1-2", 1.5}, {"PL2-3", 2.5}, {"PL3-4", 3.5},
	}
	cats := []struct {
		cat  synth.Category
		tech string // technique matched to the category, as in the figure
	}{
		{synth.HeavyDrop, "reorder"},
		{synth.SmallStatic, "merge"},
		{synth.HighLocality, "cache"},
	}
	for _, c := range cats {
		var xs, ys []float64
		for gi, g := range groups {
			var sum float64
			var n int
			for i := 0; i < nProgs; i++ {
				seed := opts.Seed + uint64(gi*1000+i)*11 + uint64(c.cat)*77
				prog := synth.Program(synth.ProgramSpec{
					Pipelets: 1, AvgLen: g.avgLen, Category: c.cat, Seed: seed,
				})
				prof := synth.SynthesizeProfile(prog, synth.ProfileSpec{Seed: seed + 5, Category: c.cat})
				cfg := opt.DefaultConfig()
				cfg.TopKFrac = 1
				cfg.EnableReorder = c.tech == "reorder"
				cfg.EnableCache = c.tech == "cache"
				cfg.EnableMerge = c.tech == "merge"
				sr := search(prog, prof, pm, cfg)
				if sr.BaselineLatency > 0 {
					sum += sr.Gain / sr.BaselineLatency * 100
					n++
				}
			}
			xs = append(xs, float64(gi))
			ys = append(ys, sum/float64(max(n, 1)))
		}
		res.AddSeries(fmt.Sprintf("%s/%s", c.cat, c.tech), xs, ys)
	}
	res.Note("longer pipelets yield larger reductions; merging (2-table cap) trails reordering and caching, as in the paper")
	return res
}

// search runs one optimization round on a session of its own: the figures
// vary the Config per point, and a session is bound to one. The inputs are
// synthesized here, so an error is a bug in this package.
func search(prog *p4ir.Program, prof *profile.Profile, pm costmodel.Params, cfg opt.Config) *opt.SearchResult {
	s, err := opt.NewSession(prog, pm, cfg)
	if err != nil {
		panic(err)
	}
	sr, err := s.Search(prof)
	if err != nil {
		panic(err)
	}
	return sr
}
