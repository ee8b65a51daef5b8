package opt

import (
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
