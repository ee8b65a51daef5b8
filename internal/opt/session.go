package opt

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"pipeleon/internal/analysis"
	"pipeleon/internal/costmodel"
	"pipeleon/internal/deps"
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
// Search or ReScore, while the program's table entries hold still (the
// verifier's entry epoch): a call naming it again finds the view already
// refreshed. A profile is read-only once a session has seen it.
//
// A round is two steps with a decision between them. Search and ReScore
// read only the profile and return a plan and its gain — enough for a
// caller to decide whether the plan is worth a deploy. Materialize turns
// a plan the caller decided for into a proven program, and costs a
// program clone plus the joint proof; SearchAndApply is the two composed
// for callers with nothing to decide in between.
//
// Observe, Search, Materialize, and ReScore serialize on an internal mutex;
// the cold package-level entry points are thin wrappers that run one round
// on a fresh session, so cold and warm execute the same code path.
type Session struct {
	prog     *p4ir.Program
	pm       costmodel.Params
	cfg      Config
	part     *pipelet.Partition
	an       *deps.Analyzer // shared analyzer (nil: the evaluator builds its own on first use)
	verifier *optionVerifier
	skels    skeletons // shared by a sweep's points that enumerate alike

	mu    sync.Mutex // guards everything below across rounds
	ev    *Evaluator
	epoch uint64         // the verifier's entry epoch ev's entry-dependent arrays were read at
	costs []pipelet.Cost // ev's pipelet ranking
	// placement is the placement unit found under the view as it stands
	// (without options: nothing profitable), placed whether it was looked for.
	placement Unit
	placed    bool
	stats     SessionStats
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

// NewSession partitions the program and precomputes everything that
// depends only on (prog, pm, cfg).
func NewSession(prog *p4ir.Program, pm costmodel.Params, cfg Config) (*Session, error) {
	part, err := pipelet.Form(prog, cfg.MaxPipeletLen)
	if err != nil {
		return nil, err
	}
	return newSessionShared(prog, pm, cfg, part, nil, analysis.NewVerifier(prog, cfg.DeepVerify), predecessors(prog),
		make(skeletons, len(part.Pipelets))), nil
}

// newSessionShared builds a session over prebuilt program-derived state: a
// pipelet partition, a dependency analyzer, the program's verifier (of
// the point's depth) with its predecessor index, and the partition's
// skeletons (for the point's structural config). Sweep uses it so every
// point shares the program-only analyses and pays only for its own
// evaluator and verdict memo.
func newSessionShared(prog *p4ir.Program, pm costmodel.Params, cfg Config, part *pipelet.Partition,
	an *deps.Analyzer, v *analysis.Verifier, preds map[string][]string, skels skeletons) *Session {
	return &Session{
		prog:     prog,
		pm:       pm,
		cfg:      cfg,
		part:     part,
		an:       an,
		verifier: &optionVerifier{prog: prog, cfg: cfg, v: v, preds: preds, verdict: memo.New[string, bool](verdictMemoCap)},
		skels:    skels,
	}
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
// built over it finds what Materialize returned already proven, and
// whoever mutates the program's table entries in place tells it.
func (s *Session) Verifier() *analysis.Verifier { return s.verifier.v }

// view returns the cost view under prof, refreshed unless prof is the round's
// profile already (see Session); changed table entries are re-read first.
func (s *Session) view(prof *profile.Profile) *Evaluator {
	epoch := s.verifier.v.Epoch()
	switch {
	case s.ev == nil:
		s.ev = newEvaluator(s.prog, prof, s.pm, s.cfg, s.an)
	case s.ev.prof == prof && s.epoch == epoch:
		return s.ev
	default:
		if s.epoch != epoch {
			s.ev.readEntries()
		}
		s.ev.refresh(prof)
	}
	s.epoch, s.costs, s.placed = epoch, s.ev.rank(s.part), false
	return s.ev
}

// Observe makes prof the round's profile — the one refresh of the cost view
// a round pays for — and returns what a caller's change detection reads of
// it: the pipelet ranking, and the drop rate of every table (parallel
// slices, tables in name order). A Search or ReScore of the same profile
// afterwards starts from the refreshed view. The slices are the session's:
// read-only, valid until it sees another profile.
func (s *Session) Observe(prof *profile.Profile) (costs []pipelet.Cost, tables []string, dropRates []float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ev := s.view(prof)
	return s.costs, ev.nodeNames[:ev.numTables], ev.dropRate[:ev.numTables]
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

	// Serial phase: decide group membership (a pipelet joins at most one
	// group per round), which fixes the unit list and its order.
	type unitTask struct {
		group *pipelet.Group // nil for a single-pipelet unit
		p     *pipelet.Pipelet
	}
	var tasks []unitTask
	grouped := map[*pipelet.Pipelet]bool{}
	if s.cfg.EnableGroups {
		for _, g := range pipelet.FindGroups(s.prog, s.part, res.TopK) {
			dup := false
			for _, m := range g.Members {
				if grouped[m] {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			res.Groups = append(res.Groups, g)
			for _, m := range g.Members {
				grouped[m] = true
			}
		}
		for i := range res.Groups {
			tasks = append(tasks, unitTask{group: &res.Groups[i]})
		}
	}
	for _, p := range res.TopK {
		if !grouped[p] {
			tasks = append(tasks, unitTask{p: p})
		}
	}

	// Parallel phase: price each unit's candidates.
	type unitOut struct {
		unit                      Unit
		candidates, priced, built int
	}
	outs := make([]unitOut, len(tasks))
	runIndexed(len(tasks), s.cfg.searchWorkers(), func(i int) {
		t, out := tasks[i], &outs[i]
		priced := func(p *pipelet.Pipelet) []*Option {
			sk, built := s.skels.get(ev, p)
			out.priced++
			if built {
				out.built++
			}
			return ev.price(sk)
		}
		if t.group == nil {
			opts := priced(t.p)
			out.unit, out.candidates = Unit{Name: t.p.String(), Options: opts}, len(opts)
			return
		}
		memberOpts := make([][]*Option, len(t.group.Members))
		for k, m := range t.group.Members {
			memberOpts[k] = priced(m)
			out.candidates += len(memberOpts[k])
		}
		opts := ev.GroupOptions(t.group, memberOpts)
		out.unit = Unit{Name: "group@" + t.group.Branch, Options: opts}
		out.candidates += len(opts)
	})
	for _, o := range outs {
		s.stats.UnitMisses += uint64(o.built)
		s.stats.UnitHits += uint64(o.priced - o.built)
		res.CandidatesEvaluated += o.candidates
		if len(o.unit.Options) > 0 {
			res.Units = append(res.Units, o.unit)
		}
	}

	// Placement phase: on heterogeneous targets, propose one tier
	// assignment + copy plan as an annotation-only candidate unit that
	// competes in the global knapsack below.
	if s.cfg.EnablePlacement {
		cand, err := s.placementUnit()
		if err != nil {
			return nil, err
		}
		res.CandidatesEvaluated += cand
		if len(s.placement.Options) > 0 {
			res.Units = append(res.Units, s.placement)
		}
	}

	res.Plan = s.verifyPlan(GlobalOptimize(res.Units, s.cfg.MemoryBudget, s.cfg.UpdateBudget, s.cfg))
	res.Gain = PlanGain(res.Plan)
	res.Elapsed = time.Since(start)
	s.stats.Rounds++
	s.stats.LastSearch = res.Elapsed
	s.stats.TotalSearch += res.Elapsed
	return res, nil
}

// verifyPlan discards the selected options that fail verification. Plan
// options belong to disjoint units, so verifying them in isolation is
// exact.
func (s *Session) verifyPlan(plan []*Option) []*Option {
	out := make([]*Option, 0, len(plan))
	for _, o := range plan {
		if s.verifier.verify(o) {
			out = append(out, o)
		}
	}
	return out
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
	scores := make([]float64, len(plan))
	runIndexed(len(plan), s.cfg.searchWorkers(), func(i int) {
		if !s.verifier.verify(plan[i]) {
			return
		}
		scores[i] = ev.ScoreOption(plan[i])
	})
	var total float64
	for _, sc := range scores {
		total += sc
	}
	return total
}

// placementUnit runs the greedy N-tier placement search under the view and
// leaves the resulting plan (when it beats the baseline placement) as a
// single-option unit in s.placement; it returns the candidates evaluated.
// The outcome — including "nothing profitable" — holds for as long as the
// view does, so a repeated search of the round's profile skips the greedy
// search.
func (s *Session) placementUnit() (int, error) {
	if s.pm.NumTiers() < 2 {
		return 0, nil
	}
	software := false
	for _, t := range s.prog.Tables {
		if t.TierFloor() > 0 {
			software = true
			break
		}
	}
	if !software {
		return 0, nil
	}
	if s.placed {
		return 1, nil
	}
	maxMoves := s.cfg.MaxPlacementMoves
	if maxMoves <= 0 {
		maxMoves = 8
	}
	base := NewPlacement(s.prog, s.pm)
	baseLat, err := s.ev.HeteroLatency(base)
	if err != nil {
		return 0, err
	}
	plan := s.ev.greedyPlacement(base, baseLat, maxMoves)
	s.placement, s.placed = Unit{}, true
	if gain := baseLat - s.ev.heteroLatency(plan); gain > 1e-12 {
		o := &Option{Kind: OptPlacement, Placement: &plan, Gain: gain}
		// Accumulate in the view's (sorted) table order: float sums are
		// order-sensitive and map iteration is not, and warm and cold
		// sessions must agree bitwise.
		for i, t := range s.ev.tables {
			if plan.Copies[t.Name] {
				o.MemCost += len(t.Entries) * t.EntryBytes() * s.pm.MatchComplexity(t)
				o.UpdateCost += s.ev.updRate[i]
			}
		}
		s.placement = Unit{Name: "placement", Options: []*Option{o}}
	}
	return 1, nil
}
