package fleet

import (
	"sync"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/opt"
	"pipeleon/internal/p4ir"
)

// maxWarmSessions bounds the controller's warm-session pool. Each session
// pins a program's partition, dependency analysis, and candidate skeletons in
// memory, so the pool holds only the most recently introduced
// (program, model) pairs — a fleet typically runs a handful of
// programs at a time, and an evicted pair merely pays one cold search.
const maxWarmSessions = 8

// sessionPool holds warm optimizer sessions keyed by (program digest,
// device model): every optimization round for a pair searched before
// reuses the session's program-derived state and candidate skeletons.
// FIFO eviction.
type sessionPool struct {
	mu     sync.Mutex
	order  []sessionKey
	byKey  map[sessionKey]*opt.Session
	hits   uint64
	misses uint64
}

type sessionKey struct {
	prog  p4ir.Digest
	model string
}

func newSessionPool() *sessionPool {
	return &sessionPool{byKey: map[sessionKey]*opt.Session{}}
}

// get returns the warm session for (digest, model), building one from
// prog — the program digest names — when absent. Concurrent callers racing
// on the same key converge on the first session inserted.
func (sp *sessionPool) get(digest p4ir.Digest, model string, prog *p4ir.Program, pm costmodel.Params, cfg opt.Config) (*opt.Session, error) {
	key := sessionKey{digest, model}
	sp.mu.Lock()
	if s, ok := sp.byKey[key]; ok {
		sp.hits++
		sp.mu.Unlock()
		return s, nil
	}
	sp.misses++
	sp.mu.Unlock()

	s, err := opt.NewSession(prog, pm, cfg)
	if err != nil {
		return nil, err
	}

	sp.mu.Lock()
	defer sp.mu.Unlock()
	if cur, ok := sp.byKey[key]; ok {
		return cur, nil // lost the build race; keep the incumbent's memos
	}
	sp.byKey[key] = s
	sp.order = append(sp.order, key)
	if len(sp.order) > maxWarmSessions {
		oldest := sp.order[0]
		sp.order = sp.order[1:]
		delete(sp.byKey, oldest)
	}
	return s, nil
}

// SearchSessionStats aggregates the controller's warm-session pool for
// Status: pool effectiveness plus the summed per-session counters
// (opt.SessionStats).
type SearchSessionStats struct {
	// Sessions is the number of live warm sessions.
	Sessions int `json:"sessions"`
	// PoolHits / PoolMisses count session-pool lookups.
	PoolHits   uint64 `json:"pool_hits"`
	PoolMisses uint64 `json:"pool_misses"`
	// Rounds is the total searches served across live sessions.
	Rounds int `json:"rounds"`
	// UnitHits / UnitMisses count pipelets priced on a skeleton reused / built.
	UnitHits   uint64 `json:"unit_hits"`
	UnitMisses uint64 `json:"unit_misses"`
	// VerifyHits / VerifyMisses count per-option verdict-memo outcomes.
	VerifyHits   uint64 `json:"verify_hits"`
	VerifyMisses uint64 `json:"verify_misses"`
	// Whole-program proofs answered from the verifiers' program-digest
	// memos versus run, and — summed over the sessions with a deep
	// verifier — how many of the programs' conditionals the semantic
	// tier's path classes split on.
	ProofMemoHits    uint64 `json:"proof_memo_hits"`
	ProofMemoMisses  uint64 `json:"proof_memo_misses"`
	ProofForcedConds int    `json:"proof_forced_conds"`
	ProofTotalConds  int    `json:"proof_total_conds"`
	// TotalSearchNs is the cumulative wall-clock search time in
	// nanoseconds across live sessions.
	TotalSearchNs int64 `json:"total_search_ns"`
}

func (sp *sessionPool) stats() SearchSessionStats {
	sp.mu.Lock()
	sessions := make([]*opt.Session, 0, len(sp.byKey))
	for _, s := range sp.byKey {
		sessions = append(sessions, s)
	}
	st := SearchSessionStats{
		Sessions:   len(sp.byKey),
		PoolHits:   sp.hits,
		PoolMisses: sp.misses,
	}
	sp.mu.Unlock()
	for _, s := range sessions {
		ss := s.Stats()
		st.Rounds += ss.Rounds
		st.UnitHits += ss.UnitHits
		st.UnitMisses += ss.UnitMisses
		st.VerifyHits += ss.VerifyHits
		st.VerifyMisses += ss.VerifyMisses
		st.ProofMemoHits += ss.ProofMemoHits
		st.ProofMemoMisses += ss.ProofMemoMisses
		st.ProofForcedConds += ss.ProofForcedConds
		st.ProofTotalConds += ss.ProofTotalConds
		st.TotalSearchNs += ss.TotalSearch.Nanoseconds()
	}
	return st
}
