package opt

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pipeleon/internal/pipelet"
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
