package opt

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/pipelet"
	"pipeleon/internal/profile"
)

// SearchResult is the outcome of one optimization round.
type SearchResult struct {
	// Plan is the selected set of options (at most one per unit).
	Plan []*Option
	// Units are the knapsack groups that were searched.
	Units []Unit
	// Costs is the full pipelet ranking that drove top-k selection.
	Costs []pipelet.Cost
	// TopK are the pipelets selected for optimization this round.
	TopK []*pipelet.Pipelet
	// Groups are the pipelet groups formed among the top-k.
	Groups []pipelet.Group
	// Gain is the plan's estimated whole-program latency reduction (ns).
	Gain float64
	// BaselineLatency is the expected latency of the input program.
	BaselineLatency float64
	// Elapsed is the wall-clock search time.
	Elapsed time.Duration
	// CandidatesEvaluated counts scored options across all units.
	CandidatesEvaluated int
}

// searchWorkers resolves the candidate-evaluation pool size.
func (c Config) searchWorkers() int {
	if c.SearchWorkers > 0 {
		return c.SearchWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// runIndexed evaluates f(0..n-1) on a pool of `workers` goroutines.
// Callers write results into index i of a pre-sized slice, which keeps
// output ordering (and therefore search results) deterministic whatever
// the worker count.
func runIndexed(n, workers int, f func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// Search runs one full optimization round (§4): partition into pipelets,
// rank by cost under the profile, select the top-k, form pipelet groups,
// enumerate per-unit candidates, and solve the global knapsack.
//
// It is the cold entry point: one round on a throwaway Session, so cold
// and warm searches execute exactly the same code path (and therefore
// produce bit-identical results — pinned by the warm/cold property test).
func Search(prog *p4ir.Program, prof *profile.Profile, pm costmodel.Params, cfg Config) (*SearchResult, error) {
	s, err := NewSession(prog, pm, cfg)
	if err != nil {
		return nil, err
	}
	return s.Search(prof)
}

// SearchAndApply runs Search and, when the plan is non-empty, applies it.
// A nil Rewrite with nil error means "nothing worth doing".
func SearchAndApply(prog *p4ir.Program, prof *profile.Profile, pm costmodel.Params, cfg Config) (*SearchResult, *Rewrite, error) {
	s, err := NewSession(prog, pm, cfg)
	if err != nil {
		return nil, nil, err
	}
	return s.SearchAndApply(prof)
}
