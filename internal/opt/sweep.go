package opt

import (
	"fmt"
	"runtime"

	"pipeleon/internal/analysis"
	"pipeleon/internal/costmodel"
	"pipeleon/internal/deps"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/pipelet"
	"pipeleon/internal/profile"
)

// SweepPoint is one coordinate of a design-space exploration: a cost
// model (the target's latency/complexity parameters) paired with an
// optimizer configuration.
type SweepPoint struct {
	Params costmodel.Params
	Config Config
}

// Sweep evaluates one program under many (cost model, config) points —
// the substrate of "what-if" design-space exploration: which budget,
// hit-rate assumption, or target would this program profit from most?
//
// All points share the program-derived analyses (dependency analyzer, one
// verifier per proof depth, predecessor index, one pipelet partition per
// distinct MaxPipeletLen, and the partition's candidate skeletons per
// distinct structural config); each point runs its own warm session, since
// candidate gains and rewrite verdicts depend on the point's parameters.
// Points fan out over `workers` goroutines (<=0 uses GOMAXPROCS); results
// are indexed by point and bit-identical to searching prof on a fresh
// NewSession(prog, pt.Params, pt.Config) per point — pinned by
// TestSweepMatchesSearch. For large sweeps, set each point's
// Config.SearchWorkers to 1 so per-unit fan-out does not oversubscribe
// the point-level pool.
func Sweep(prog *p4ir.Program, prof *profile.Profile, points []SweepPoint, workers int) ([]*SearchResult, error) {
	if len(points) == 0 {
		return nil, nil
	}
	an := deps.NewAnalyzer(prog)
	preds := predecessors(prog)
	// The deep verifier is only built when some point wants the deep gate —
	// path-class enumeration is not free.
	shallow := analysis.NewVerifier(prog, false)
	var deep *analysis.Verifier
	parts := map[int]*pipelet.Partition{}
	// Skeletons by the partition they are over and every Config field they read.
	skels := map[string]skeletons{}
	sessions := make([]*Session, len(points))
	for i, pt := range points {
		part, ok := parts[pt.Config.MaxPipeletLen]
		if !ok {
			var err error
			part, err = pipelet.Form(prog, pt.Config.MaxPipeletLen)
			if err != nil {
				return nil, err
			}
			parts[pt.Config.MaxPipeletLen] = part
		}
		v := shallow
		if pt.Config.DeepVerify {
			if deep == nil {
				deep = shallow.Deepened()
			}
			v = deep
		}
		c := pt.Config
		key := fmt.Sprint(c.MaxPipeletLen, c.MaxOrders, c.MaxSegmentations, c.MergeCap, c.EnableReorder, c.EnableCache, c.EnableMerge)
		if skels[key] == nil {
			skels[key] = make(skeletons, len(part.Pipelets))
		}
		sessions[i] = newSessionShared(prog, pt.Params, c, part, an, v, preds, skels[key])
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	results := make([]*SearchResult, len(points))
	errs := make([]error, len(points))
	runIndexed(len(points), workers, func(i int) {
		results[i], errs[i] = sessions[i].Search(prof)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
