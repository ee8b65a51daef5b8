// Package opt implements Pipeleon's performance-oriented P4 optimizations
// (§3.2) — table reordering, table caching, and table merging — together
// with the per-pipelet candidate enumeration and the global knapsack plan
// search of §4.2 / Appendix A.1, and the graph rewrites that realize a
// chosen plan.
package opt

import "math"

// Config carries the tunables of the optimizer. The zero value is not
// useful; start from DefaultConfig.
type Config struct {
	// CacheBudgetEntries is the fixed LRU budget reserved per cache
	// (§3.2.2: "Pipeleon reserves a fixed budget for each cache and
	// adopts LRU eviction when the cache is full").
	CacheBudgetEntries int
	// CacheInsertLimit caps each cache's entry insertions per second;
	// insertions beyond the limit are dropped (§3.2.2).
	CacheInsertLimit float64
	// HitRateOverride pins the estimated hit rate for specific spans
	// (keyed by SpanKey). The runtime writes observed rates here so
	// re-planning uses reality instead of the default estimate.
	HitRateOverride map[string]float64
	// MergeCap bounds how many tables one merge may combine. The paper
	// restricts merges to two tables by default to control memory
	// overhead (§5.2.2) but sweeps to four in Figure 9d.
	MergeCap int
	// MemoryBudget is the optimizer-wide extra memory allowance in bytes
	// (the M of Equation 5). <=0 means unconstrained.
	MemoryBudget int
	// UpdateBudget is the entry-update bandwidth allowance in ops/second
	// (the E of Equation 5). <=0 means unconstrained.
	UpdateBudget float64
	// TopKFrac selects the fraction of pipelets optimized per round
	// (1 = exhaustive search / ESearch).
	TopKFrac float64
	// MaxPipeletLen bounds pipelet length at partition time.
	MaxPipeletLen int
	// EnableReorder / EnableCache / EnableMerge toggle individual
	// techniques (for the per-technique microbenchmarks).
	EnableReorder bool
	EnableCache   bool
	EnableMerge   bool
	// EnableGroups turns on cross-pipelet (pipelet group) optimization
	// (§4.1.1, Figure 15).
	EnableGroups bool
	// ProfileChangeThreshold is the relative change in any pipelet's
	// weighted cost that triggers a new optimization round; below it the
	// runtime skips the search entirely ("Pipeleon constantly monitors
	// the profile; when it varies, a new round of optimization will be
	// triggered", §2.3). 0 disables skipping.
	ProfileChangeThreshold float64
	// RedeployMargin is the relative improvement a new plan must show
	// over the re-scored active plan before the runtime reconfigures the
	// device. Hysteresis prevents flip-flopping between near-equal plans,
	// each swap of which would cold-start its caches.
	RedeployMargin float64
	// DeepVerify makes the session's analysis.Verifier a deep one: every
	// plan option and every materialized program must additionally pass
	// the semantic tier — a differential abstract-interpretation check
	// that the rewritten program preserves per-path-class drop behaviour
	// and egress field ranges — on top of the always-on
	// dependency-ordering proof. Off by default — it roughly doubles
	// per-candidate verification cost.
	DeepVerify bool
}

// Model constants no caller tunes. They are typed so that every expression
// they enter is evaluated at run time in that type, as it was when they
// were Config fields.
const (
	// estimatedHitRate is the default hit-rate estimate used before any
	// runtime observation exists (§3.2.2: "it uses a default estimated
	// hit rate for calculation but continuously monitors its actual
	// performance at runtime").
	estimatedHitRate float64 = 0.9
	// hitRateAlpha shapes the budget/working-set scaling of the hit-rate
	// estimate: h = min(estimatedHitRate, (budget/workingSet)^alpha).
	// Under Zipf-like locality a cache covering a fraction f of the flow
	// space captures more than f of the packets, hence alpha < 1.
	hitRateAlpha float64 = 0.5
	// invalidationPenalty models cache-warmth loss per covered-table
	// entry update (seconds of degradation per update/second): a cache
	// whose covered tables update at rate U has its estimated hit rate
	// scaled by 1/(1 + U·invalidationPenalty), since every update
	// invalidates the entire cache (§3.2.2). This is what steers the
	// planner away from caching churning tables (Figure 11a).
	invalidationPenalty float64 = 0.01
	// mergedCacheHitRate estimates the coverage of a merged-exact cache
	// (the fraction of traffic matching installed entries in all merged
	// tables).
	mergedCacheHitRate float64 = 0.85
	// defaultCardinality is the assumed per-table distinct-key count when
	// the profile has not observed one.
	defaultCardinality uint64 = 1024
	// maxGroupCombos caps the cross product of member options evaluated
	// per pipelet group.
	maxGroupCombos int = 256
	// Per pipelet, the search enumerates at most maxOrders table orders
	// (beyond it only the original and the greedy drop-sorted ones) and
	// maxSegmentations segmentations per order — long pipelets otherwise
	// explode combinatorially, §4's motivation for bounding the search —
	// and keeps the maxOptionsPerPipelet best candidates. memBuckets ×
	// updBuckets discretize the two budgets for the knapsack.
	maxOrders            int = 120
	maxSegmentations     int = 20000
	maxOptionsPerPipelet int = 512
	memBuckets           int = 64
	updBuckets           int = 32
)

// searchCaps are the bounds of one search: the constants above, which a
// test may replace on an evaluator (export_test.go).
type searchCaps struct{ orders, options, segmentations, memBuckets, updBuckets int }

var constCaps = searchCaps{maxOrders, maxOptionsPerPipelet, maxSegmentations, memBuckets, updBuckets}

// DefaultConfig returns the paper-faithful defaults.
func DefaultConfig() Config {
	return Config{
		CacheBudgetEntries:     1024,
		CacheInsertLimit:       5000,
		MergeCap:               2,
		TopKFrac:               0.2,
		MaxPipeletLen:          8,
		EnableReorder:          true,
		EnableCache:            true,
		EnableMerge:            true,
		EnableGroups:           true,
		ProfileChangeThreshold: 0.05,
		RedeployMargin:         0.1,
	}
}

// hitEstimateNoOverride returns the estimated hit rate for a cache with the
// configured budget over a working set of ws distinct keys — the model part
// of the estimate; Evaluator.hitEstimate puts HitRateOverride in front.
func (c Config) hitEstimateNoOverride(ws uint64) float64 {
	if ws == 0 {
		return estimatedHitRate
	}
	b := float64(c.CacheBudgetEntries)
	if b <= 0 || float64(ws) <= b {
		return estimatedHitRate
	}
	h := math.Pow(b/float64(ws), hitRateAlpha) * estimatedHitRate
	if h < 0 {
		h = 0
	}
	return h
}
