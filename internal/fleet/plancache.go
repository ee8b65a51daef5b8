package fleet

import (
	"encoding/hex"
	"sync"

	"pipeleon/internal/p4ir"
)

// PlanEntry is one cached optimization result: the program produced by a
// plan search, keyed by what made the search reusable — the base program,
// the device model (cost model), and a quantized profile signature.
type PlanEntry struct {
	// Base is the content digest of the base program the plan was
	// searched for.
	Base      p4ir.Digest `json:"-"`
	Model     string      `json:"model"`
	Signature string      `json:"signature"`
	Plan      []string    `json:"plan"`
	Gain      float64     `json:"gain_ns"`
	// Source records how the entry was produced ("search"); Get flips the
	// returned copy to "cache" so callers can report reuse.
	Source string `json:"source"`
	// Program is the optimized program. Get hands out clones — cached
	// entries must never alias a deployed program.
	Program *p4ir.Program `json:"-"`
}

// PlanCacheStats is the cache's machine-readable counter snapshot.
type PlanCacheStats struct {
	Entries int    `json:"entries"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
}

// PlanCache is the fleet's shared plan cache. One canary's optimization
// search (seconds of knapsack work under the cost model) is reused for
// every device with the same base program, the same model, and a similar
// enough traffic profile — the similarity relation is equality of the
// quantized profile.Signature. Eviction is FIFO; safe for concurrent use.
type PlanCache struct {
	mu      sync.Mutex
	max     int
	entries map[planKey]*PlanEntry
	order   []planKey
	hits    uint64
	misses  uint64
}

// NewPlanCache returns a cache holding at most max entries (<=0 → 128).
func NewPlanCache(max int) *PlanCache {
	if max <= 0 {
		max = 128
	}
	return &PlanCache{max: max, entries: map[planKey]*PlanEntry{}}
}

// planKey is what made a search reusable. The base program is named by its
// whole digest: a hit hands out a program that is then deployed unsearched.
type planKey struct {
	base       p4ir.Digest
	model, sig string
}

// Get returns a copy of the cached entry for the key triple, with a
// cloned Program, or ok=false on a miss.
func (pc *PlanCache) Get(base p4ir.Digest, model, sig string) (*PlanEntry, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	e, ok := pc.entries[planKey{base, model, sig}]
	if !ok {
		pc.misses++
		return nil, false
	}
	pc.hits++
	cp := *e
	cp.Source = "cache"
	if e.Program != nil {
		cp.Program = e.Program.Clone()
	}
	cp.Plan = append([]string(nil), e.Plan...)
	return &cp, true
}

// Put stores the entry (cloning its Program), evicting the oldest entry
// when full.
func (pc *PlanCache) Put(e *PlanEntry) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	key := planKey{e.Base, e.Model, e.Signature}
	cp := *e
	if e.Program != nil {
		cp.Program = e.Program.Clone()
	}
	cp.Plan = append([]string(nil), e.Plan...)
	if _, exists := pc.entries[key]; !exists {
		pc.order = append(pc.order, key)
		for len(pc.order) > pc.max {
			oldest := pc.order[0]
			pc.order = pc.order[1:]
			delete(pc.entries, oldest)
		}
	}
	pc.entries[key] = &cp
}

// Stats returns the cache counters.
func (pc *PlanCache) Stats() PlanCacheStats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return PlanCacheStats{Entries: len(pc.entries), Hits: pc.hits, Misses: pc.misses}
}

// Fingerprint returns a stable short hash of a program for logs and
// reports: the first 16 hex characters of the program's content digest,
// which is deterministic (sorted nodes), so equal programs hash equal
// across processes. It is a display form only; rollouts, the plan cache and
// the session pool identify programs by the whole digest.
func Fingerprint(p *p4ir.Program) string {
	if p == nil {
		return ""
	}
	return shortDigest(p.Digest())
}

func shortDigest(d p4ir.Digest) string { return hex.EncodeToString(d[:8]) }
