package opt

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"pipeleon/internal/analysis"
	"pipeleon/internal/costmodel"
	"pipeleon/internal/memo"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/pipelet"
	"pipeleon/internal/profile"
)

// Session is a warm optimizer for one (program, cost model, config)
// triple. It survives across optimization rounds, keeping alive everything
// a round does not change: the pipelet partition, the dependency analyzer,
// the program's verifier and its verdict memos, the cost view's arrays,
// and one candidate skeleton per pipelet.
//
// What moves between two rounds is the profile, never the program, so the
// search is split along that line. A pipelet's skeleton — its valid orders,
// legal spans, every segmentation — reads the program, the dependency
// analysis and the config only; it is built the first time the pipelet is
// searched and never again. A round refreshes the view once, prices the
// skeletons of the pipelets it selected (Evaluator.price) and solves the
// knapsack. No price outlives its round, so a warm result is a cold
// Search's bit for bit, whatever profiles came before.
//
// "The round's profile" is the *profile.Profile last handed to Observe,
// Search or ReScore, while the program's table entries hold still (its
// p4ir EntryVersion): a call naming it again finds the view already
// refreshed. A profile is read-only once a session has seen it.
//
// A round is two steps with a decision between them. Search and ReScore
// read only the profile and return a plan and its gain — enough for a
// caller to decide whether the plan is worth a deploy. Materialize turns
// a plan the caller decided for into a proven program, and costs a
// program clone plus the joint proof; SearchAndApply is the two composed
// for callers with nothing to decide in between.
//
// Observe, Search, Materialize, and ReScore serialize on an internal mutex
// and run on the caller's goroutine: a session starts none of its own.
// Stats may be called while a round runs. A cold search is a fresh
// session's first round, so cold and warm execute the same code path.
type Session struct {
	prog     *p4ir.Program
	pm       costmodel.Params
	cfg      Config
	part     *pipelet.Partition
	verifier *optionVerifier

	mu      sync.Mutex  // guards everything below across rounds
	skels   []*skeleton // by Pipelet.ID, built the first time the pipelet is searched
	ev      *Evaluator
	version uint64         // the program's entry version ev's entry-dependent arrays were read at
	costs   []pipelet.Cost // ev's pipelet ranking
	stats   SessionStats
}

// SessionStats counts the session's cache effectiveness and search cost.
type SessionStats struct {
	// Rounds is the number of Search calls served.
	Rounds int
	// UnitHits / UnitMisses count the pipelets priced on a skeleton the
	// session already held versus one it had to build first.
	UnitHits   uint64
	UnitMisses uint64
	// VerifyHits / VerifyMisses count the per-option verdict memo: a miss
	// is one option applied to a scratch program and proven.
	VerifyHits   uint64
	VerifyMisses uint64
	// Materialized counts Materialize calls: each is one Apply plus the
	// joint proof of the applied program.
	Materialized uint64
	// ProofMemoHits / ProofMemoMisses count proofs of whole programs — the
	// jointly applied plan, the deploy gate — answered from the verifier's
	// program-digest memo versus actually run.
	ProofMemoHits   uint64
	ProofMemoMisses uint64
	// ProofForcedConds of the program's ProofTotalConds conditionals split
	// the path classes the proof compares; fewer forced than total means
	// the class budget coarsened it (still sound). Both zero unless
	// Config.DeepVerify.
	ProofForcedConds int
	ProofTotalConds  int
	// LastSearch / TotalSearch are wall-clock search latencies.
	LastSearch  time.Duration
	TotalSearch time.Duration
}

// NewSession checks the program, partitions it and precomputes everything
// that depends only on (prog, pm, cfg); the layers behind it trust the
// check.
func NewSession(prog *p4ir.Program, pm costmodel.Params, cfg Config) (*Session, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	part, err := pipelet.Form(prog, cfg.MaxPipeletLen)
	if err != nil {
		return nil, err
	}
	return &Session{
		prog: prog,
		pm:   pm,
		cfg:  cfg,
		part: part,
		verifier: &optionVerifier{prog: prog, cfg: cfg, v: analysis.NewVerifier(prog, cfg.DeepVerify),
			preds: predecessors(prog), verdict: memo.New[string, bool](verdictMemoCap)},
		skels: make([]*skeleton, len(part.Pipelets)),
	}, nil
}

// Stats returns a snapshot of the session counters.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	v := s.verifier.v
	st.VerifyHits, st.VerifyMisses = s.verifier.verdict.Stats()
	st.ProofMemoHits, st.ProofMemoMisses = v.MemoStats()
	st.ProofForcedConds, st.ProofTotalConds = v.Strength()
	return st
}

// Verifier returns the verifier of the session's program. A deploy gate
// built over it finds what Materialize returned already proven; it follows
// the program's entry operations by itself (p4ir's EntryVersion).
func (s *Session) Verifier() *analysis.Verifier { return s.verifier.v }

// view returns the cost view under prof, refreshed unless prof is the round's
// profile already (see Session); changed table entries are re-read first.
func (s *Session) view(prof *profile.Profile) *Evaluator {
	version := s.prog.EntryVersion()
	switch {
	case s.ev == nil:
		s.ev = NewEvaluator(s.prog, prof, s.pm, s.cfg)
	case s.ev.prof == prof && s.version == version:
		return s.ev
	default:
		if s.version != version {
			s.ev.readEntries()
		}
		s.ev.refresh(prof)
	}
	s.version, s.costs = version, s.ev.rank(s.part)
	return s.ev
}

// Observe makes prof the round's profile — the one refresh of the cost view
// a round pays for — and returns what a caller's change detection reads of
// it: the pipelet ranking, and the drop rate of every node (parallel
// slices, nodes in name order; a conditional's is 0). A Search or ReScore
// of the same profile afterwards starts from the refreshed view. The
// slices are the session's: read-only, valid until it sees another profile.
func (s *Session) Observe(prof *profile.Profile) (costs []pipelet.Cost, nodes []string, dropRates []float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ev := s.view(prof)
	return s.costs, ev.ix.Names(), ev.dropRate
}

// Search runs one optimization round (§4) against the session's program:
// rank pipelets under the profile, select the top-k, form groups, price
// each unit's candidates on its pipelets' skeletons, and solve the global
// knapsack. A held session and a fresh one produce bit-identical results
// (pinned by TestWarmSessionMatchesColdSearch).
func (s *Session) Search(prof *profile.Profile) (*SearchResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := time.Now()
	ev := s.view(prof)
	res := &SearchResult{Costs: s.costs, BaselineLatency: ev.baseline()}
	res.TopK = pipelet.TopK(res.Costs, s.cfg.TopKFrac)

	// A pipelet joins at most one group per round; groups are priced first,
	// then the top-k pipelets left alone, which fixes the unit order.
	grouped := map[*pipelet.Pipelet]bool{}
	if s.cfg.EnableGroups {
		for _, g := range pipelet.FindGroups(s.prog, s.part, res.TopK) {
			if !slices.ContainsFunc(g.Members, func(m *pipelet.Pipelet) bool { return grouped[m] }) {
				res.Groups = append(res.Groups, g)
				for _, m := range g.Members {
					grouped[m] = true
				}
			}
		}
	}
	priced := func(p *pipelet.Pipelet) []*Option {
		if s.skels[p.ID] == nil {
			s.skels[p.ID] = newSkeleton(ev, p)
			s.stats.UnitMisses++
		} else {
			s.stats.UnitHits++
		}
		opts := ev.price(s.skels[p.ID])
		res.CandidatesEvaluated += len(opts)
		return opts
	}
	addUnit := func(name string, opts []*Option) {
		if len(opts) > 0 {
			res.Units = append(res.Units, Unit{Name: name, Options: opts})
		}
	}
	for i := range res.Groups {
		g := &res.Groups[i]
		memberOpts := make([][]*Option, len(g.Members))
		for k, m := range g.Members {
			memberOpts[k] = priced(m)
		}
		opts := ev.GroupOptions(g, memberOpts)
		res.CandidatesEvaluated += len(opts)
		addUnit("group@"+g.Branch, opts)
	}
	for _, p := range res.TopK {
		if !grouped[p] {
			addUnit(p.String(), priced(p))
		}
	}

	res.Plan = s.verifyPlan(globalOptimize(res.Units, s.cfg.MemoryBudget, s.cfg.UpdateBudget, ev.caps))
	res.Gain = PlanGain(res.Plan)
	res.Elapsed = time.Since(start)
	s.stats.Rounds++
	s.stats.LastSearch = res.Elapsed
	s.stats.TotalSearch += res.Elapsed
	return res, nil
}

// verifyPlan discards the selected options that fail verification. Plan
// options belong to disjoint units, so verifying them in isolation is
// exact. The options kept are copies: a pipelet's candidates are priced
// into one slab, and a plan held past the round (the runtime's active
// plan) would otherwise keep every candidate beside the one it chose.
func (s *Session) verifyPlan(plan []*Option) []*Option {
	out := make([]*Option, 0, len(plan))
	for _, o := range plan {
		if s.verifier.verify(o) {
			out = append(out, detach(o))
		}
	}
	return out
}

// detach copies o, and a combo's members with it, out of their slabs.
func detach(o *Option) *Option {
	c := *o
	if o.Members != nil {
		c.Members = make([]*Option, len(o.Members))
		for i, m := range o.Members {
			if m != nil {
				c.Members[i] = detach(m)
			}
		}
	}
	return &c
}

// Materialize builds the program a searched plan describes and proves it
// before handing it to a deploy path: the plan options verified
// individually during Search; this applies them together and proves the
// jointly applied program too. The rewrite carries the program's digest,
// under which the verifier now remembers the proof.
func (s *Session) Materialize(plan []*Option) (*Rewrite, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Materialized++
	rw, err := Apply(s.prog, plan, s.cfg)
	if err != nil {
		return nil, err
	}
	rw.Digest = rw.Program.Digest()
	if d := s.verifier.v.Prove(rw.Program, rw.Digest); d.HasErrors() {
		return nil, fmt.Errorf("opt: optimized program fails verification: %s",
			strings.Join(d.Errors().Strings(), "; "))
	}
	return rw, nil
}

// SearchAndApply runs Search and, when the plan is non-empty, Materialize.
// A nil Rewrite with nil error means "nothing worth doing".
func (s *Session) SearchAndApply(prof *profile.Profile) (*SearchResult, *Rewrite, error) {
	res, err := s.Search(prof)
	if err != nil {
		return nil, nil, err
	}
	if len(res.Plan) == 0 {
		return res, nil, nil
	}
	rw, err := s.Materialize(res.Plan)
	return res, rw, err
}

// ReScore sums the re-evaluated gains of a plan under a new profile:
// options whose rewrite no longer verifies contribute no gain.
func (s *Session) ReScore(prof *profile.Profile, plan []*Option) float64 {
	if len(plan) == 0 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ev := s.view(prof)
	var total float64
	for _, o := range plan {
		if s.verifier.verify(o) {
			total += ev.ScoreOption(o)
		}
	}
	return total
}
