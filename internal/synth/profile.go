package synth

import (
	"sort"

	"pipeleon/internal/p4ir"
	"pipeleon/internal/pipelet"
	"pipeleon/internal/profile"
	"pipeleon/internal/stats"
)

// ProfileSpec parameterizes runtime-profile synthesis.
type ProfileSpec struct {
	Seed     uint64
	Category Category
	// TotalPackets scales all counters (default 1e6).
	TotalPackets uint64
}

// SynthesizeProfile builds a runtime profile for prog: random branch
// probabilities, action counts consistent with the resulting reach
// probabilities, category-shaped drop rates, key cardinalities, and entry
// update rates. This is the paper's "runtime profile synthesizer"
// (§5.2.2, §5.4.3: "we randomly synthesized 2000 runtime profiles for each
// program").
func SynthesizeProfile(prog *p4ir.Program, spec ProfileSpec) *profile.Profile {
	rng := stats.NewRNG(spec.Seed)
	total := spec.TotalPackets
	if total == 0 {
		total = 1_000_000
	}
	p := profile.New()
	switch spec.Category {
	case HighLocality:
		p.FlowCardinality = 128 + rng.Uint64()%256
	case SmallStatic:
		p.FlowCardinality = 2048 + rng.Uint64()%4096
	default:
		p.FlowCardinality = 50_000 + rng.Uint64()%100_000
	}

	// Pass 1: random branch probabilities. Iterate names in sorted order:
	// RNG draws inside a map-order loop would assign different values to
	// each node across runs, making the "same seed" profile nondeterministic.
	ix := p4ir.NewIndex(prog)
	for _, id := range ix.Conds() {
		name := ix.Name(id)
		pt := rng.Float64()
		t := uint64(pt * float64(total))
		p.BranchCounts[name] = [2]uint64{t, total - t}
	}
	// Per-table behaviour knobs, drawn before reach so they are stable.
	dropRate := map[string]float64{}
	mainRate := map[string]float64{}
	for _, id := range ix.Tables() {
		name, t := ix.Name(id), ix.Table(id)
		var dr float64
		if t.HasDropAction() {
			switch spec.Category {
			case HeavyDrop:
				dr = 0.4 + 0.55*rng.Float64()
			case SmallStatic:
				dr = 0.05 * rng.Float64()
			default:
				dr = rng.Float64() * 0.5
			}
		}
		dropRate[name] = dr
		mainRate[name] = 0.3 + 0.7*rng.Float64() // fraction hitting act_main vs miss

		switch spec.Category {
		case SmallStatic:
			p.UpdateRates[name] = 0 // static tables
			p.KeyCardinality[name] = uint64(4 + rng.Intn(28))
		case HighLocality:
			p.UpdateRates[name] = rng.Float64() * 5
			p.KeyCardinality[name] = uint64(8 + rng.Intn(56))
		default:
			p.UpdateRates[name] = rng.Float64() * 100
			p.KeyCardinality[name] = uint64(64 + rng.Intn(4096))
		}
	}
	// Pass 2: propagate reach with the branch probabilities and the drawn
	// drop rates, assigning action counts as we go (topological order).
	if ix.Err() != nil {
		return p
	}
	reach := map[string]float64{}
	if prog.Root != "" {
		reach[prog.Root] = 1
	}
	for _, id := range ix.Topo() {
		name := ix.Name(id)
		mass := reach[name]
		if mass <= 0 {
			continue
		}
		if t, c := prog.Node(name); t != nil {
			arrived := uint64(mass * float64(total))
			counts := map[string]uint64{}
			dropped := uint64(float64(arrived) * dropRate[name])
			remaining := arrived - dropped
			if t.HasDropAction() && dropped > 0 {
				for _, a := range t.Actions {
					if a.Drops() {
						counts[a.Name] = dropped
						break
					}
				}
			}
			// Split remaining between main and miss actions.
			var mainAct, missAct string
			for _, a := range t.Actions {
				if a.Drops() {
					continue
				}
				if mainAct == "" {
					mainAct = a.Name
				} else if missAct == "" {
					missAct = a.Name
				}
			}
			if missAct == "" {
				counts[mainAct] += remaining
			} else {
				m := uint64(float64(remaining) * mainRate[name])
				counts[mainAct] += m
				counts[missAct] += remaining - m
			}
			p.ActionCounts[name] = counts
			// Flow onward.
			if t.IsSwitchCase() {
				acts := make([]string, 0, len(counts))
				for act := range counts {
					acts = append(acts, act)
				}
				sort.Strings(acts)
				for _, act := range acts {
					if a := t.Action(act); a != nil && a.Drops() {
						continue
					}
					nxt := t.NextFor(act)
					if nxt != "" {
						reach[nxt] += float64(counts[act]) / float64(total)
					}
				}
			} else if t.BaseNext != "" {
				reach[t.BaseNext] += float64(remaining) / float64(total)
			}
		} else if c != nil {
			bc := p.BranchCounts[name]
			pt := 0.5
			if bc[0]+bc[1] > 0 {
				pt = float64(bc[0]) / float64(bc[0]+bc[1])
			}
			// Rescale recorded branch counts to the actual arriving mass
			// so counter values stay mutually consistent.
			arrived := uint64(mass * float64(total))
			tcount := uint64(pt * float64(arrived))
			p.BranchCounts[name] = [2]uint64{tcount, arrived - tcount}
			if c.TrueNext != "" {
				reach[c.TrueNext] += mass * pt
			}
			if c.FalseNext != "" {
				reach[c.FalseNext] += mass * (1 - pt)
			}
		}
	}
	return p
}

// profileEntropy returns the entropy of the pipelet traffic distribution
// under a profile (appendix A.3's aggregation metric).
func profileEntropy(prog *p4ir.Program, prof *profile.Profile, maxPipeletLen int) float64 {
	part, err := pipelet.Form(prog, maxPipeletLen)
	if err != nil {
		return 0
	}
	dist := pipelet.TrafficDistribution(prog, prof, part)
	return stats.Entropy(dist)
}

// ProfileBatch synthesizes n profiles with seeds derived from base and
// returns them with their entropies, for percentile selection (§5.4.3
// uses the 10th/50th/90th entropy profiles out of 2000).
func ProfileBatch(prog *p4ir.Program, base uint64, n int, cat Category, maxPipeletLen int) ([]*profile.Profile, []float64) {
	profs := make([]*profile.Profile, n)
	ents := make([]float64, n)
	for i := 0; i < n; i++ {
		profs[i] = SynthesizeProfile(prog, ProfileSpec{Seed: base + uint64(i)*7919, Category: cat})
		ents[i] = profileEntropy(prog, profs[i], maxPipeletLen)
	}
	return profs, ents
}

// PickEntropyPercentile returns the profile whose entropy is closest to
// the q-th percentile of ents.
func PickEntropyPercentile(profs []*profile.Profile, ents []float64, q float64) *profile.Profile {
	if len(profs) == 0 {
		return nil
	}
	target := stats.Percentile(ents, q)
	best, bestDiff := 0, -1.0
	for i, e := range ents {
		d := e - target
		if d < 0 {
			d = -d
		}
		if bestDiff < 0 || d < bestDiff {
			best, bestDiff = i, d
		}
	}
	return profs[best]
}
