package opt

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sort"
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
// the search recomputed from scratch each round before: the pipelet
// partition, the dependency analyzer, the evaluator's dense per-table
// arrays, the program's verifier, and — the main lever — a memo of each
// unit's enumerated candidates.
//
// The memo is invalidated per unit by exact material change: a unit entry
// carries a fold of every profile quantity its enumeration read (reach,
// drop rate, action latency, cardinality, update rate of its tables, plus
// the global flow cardinality and the hit-rate-override digest). A round
// whose profile drifted only in tables outside a unit re-uses that unit's
// candidates untouched; a drift inside it re-enumerates just that unit.
// Because a hit requires the exact inputs of the original enumeration,
// warm results are bit-identical to a cold Search — even when the drift
// stays below the quantization threshold of profile.Signature, the coarser
// cross-program key fleet.PlanCache uses.
//
// A round is two steps with a decision between them. Search and ReScore
// read only the profile and return a plan and its gain — enough for a
// caller to decide whether the plan is worth a deploy. Materialize turns
// a plan the caller decided for into a proven program, and costs a
// program clone plus the joint proof; SearchAndApply is the two composed
// for callers with nothing to decide in between.
//
// Search, Materialize, and ReScore serialize on an internal mutex; the
// cold package-level entry points are thin wrappers that run one round on
// a fresh session, so cold and warm execute the same code path.
type Session struct {
	prog     *p4ir.Program
	pm       costmodel.Params
	cfg      Config
	part     *pipelet.Partition
	an       *deps.Analyzer // shared analyzer (nil: the evaluator builds its own on first use)
	verifier *optionVerifier

	mu    sync.Mutex // guards ev, stats across rounds
	ev    *Evaluator
	memo  *memo.Table[string, *unitEntry]
	stats SessionStats
}

// unitMemoCap bounds the unit-candidate memo. A round looks up one entry
// per top-k pipelet or group (a few dozen on a 110-table program) and the
// same units recur while the hot set holds; group keys carry their member
// composition, so a hot set that keeps regrouping over a daemon's lifetime
// would otherwise leave every composition it ever formed behind.
const unitMemoCap = 1024

// unitEntry memoizes one unit's enumeration outcome together with the
// exact material inputs that produced it.
type unitEntry struct {
	material   []uint64
	unit       Unit
	candidates int
}

// SessionStats counts the session's cache effectiveness and search cost.
type SessionStats struct {
	// Rounds is the number of Search calls served.
	Rounds int
	// UnitHits / UnitMisses count per-unit candidate-memo outcomes.
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
	return newSessionShared(prog, pm, cfg, part, nil, analysis.NewVerifier(prog, cfg.DeepVerify), predecessors(prog)), nil
}

// newSessionShared builds a session over prebuilt program-derived state: a
// pipelet partition, a dependency analyzer, and the program's verifier (of
// the point's depth) with its predecessor index. Sweep uses it so every
// point shares the program-only analyses and pays only for its own
// evaluator and memos.
func newSessionShared(prog *p4ir.Program, pm costmodel.Params, cfg Config, part *pipelet.Partition,
	an *deps.Analyzer, v *analysis.Verifier, preds map[string][]string) *Session {
	return &Session{
		prog:     prog,
		pm:       pm,
		cfg:      cfg,
		part:     part,
		an:       an,
		verifier: &optionVerifier{prog: prog, cfg: cfg, v: v, preds: preds, verdict: memo.New[string, bool](verdictMemoCap)},
		memo:     memo.New[string, *unitEntry](unitMemoCap),
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

// Partition returns the pipelet partition of the session's program. It
// depends only on the program's structure, which entry operations do not
// change, so it stays valid for the session's lifetime.
func (s *Session) Partition() *pipelet.Partition { return s.part }

// Verifier returns the verifier of the session's program. A deploy gate
// built over it finds what Materialize returned already proven, and
// whoever mutates the program's table entries in place tells it.
func (s *Session) Verifier() *analysis.Verifier { return s.verifier.v }

// ensureEvaluator builds the evaluator on first use and refreshes its
// profile-dependent arrays afterwards.
func (s *Session) ensureEvaluator(prof *profile.Profile) {
	if s.ev == nil {
		s.ev = newEvaluator(s.prog, prof, s.pm, s.cfg, s.an)
		return
	}
	s.ev.refresh(prof)
}

// Search runs one optimization round (§4) against the session's program:
// rank pipelets under the profile, select the top-k, form groups,
// enumerate per-unit candidates (reusing memoized units whose material
// inputs are unchanged), and solve the global knapsack. The result is
// bit-identical to the package-level Search.
func (s *Session) Search(prof *profile.Profile) (*SearchResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.searchLocked(prof)
}

func (s *Session) searchLocked(prof *profile.Profile) (*SearchResult, error) {
	start := time.Now()
	s.ensureEvaluator(prof)
	ev := s.ev
	res := &SearchResult{Costs: ev.rank(s.part), BaselineLatency: ev.baseline()}
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
		res.Groups = nil
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

	// Memo phase: fold each task's material inputs and split hits from
	// misses. Only misses enumerate.
	od := overrideDigest(s.cfg.HitRateOverride)
	fc := prof.FlowCardinality

	type unitOut struct {
		unit       Unit
		candidates int
	}
	outs := make([]unitOut, len(tasks))
	keys := make([]string, len(tasks))
	mats := make([][]uint64, len(tasks))
	var miss []int
	for i, t := range tasks {
		if t.group != nil {
			keys[i] = groupKey(t.group)
			mats[i] = s.groupMaterial(t.group, fc, od)
		} else {
			keys[i] = "p:" + t.p.String()
			mats[i] = s.pipeletMaterial(t.p, fc, od)
		}
		if e, ok := s.memo.Get(keys[i]); ok && slices.Equal(e.material, mats[i]) {
			outs[i] = unitOut{unit: e.unit, candidates: e.candidates}
			s.stats.UnitHits++
			continue
		}
		miss = append(miss, i)
		s.stats.UnitMisses++
	}

	// Parallel phase: enumerate and score each missed unit's candidates.
	runIndexed(len(miss), s.cfg.searchWorkers(), func(j int) {
		t := tasks[miss[j]]
		if t.group != nil {
			memberOpts := make([][]*Option, len(t.group.Members))
			cand := 0
			for k, m := range t.group.Members {
				memberOpts[k] = ev.LocalOptimize(m)
				cand += len(memberOpts[k])
			}
			opts := ev.GroupOptions(t.group, memberOpts)
			outs[miss[j]] = unitOut{
				unit:       Unit{Name: "group@" + t.group.Branch, Options: opts},
				candidates: cand + len(opts),
			}
			return
		}
		opts := ev.LocalOptimize(t.p)
		outs[miss[j]] = unitOut{unit: Unit{Name: t.p.String(), Options: opts}, candidates: len(opts)}
	})
	for _, i := range miss {
		s.memo.Put(keys[i], &unitEntry{material: mats[i], unit: outs[i].unit, candidates: outs[i].candidates})
	}

	for _, o := range outs {
		res.CandidatesEvaluated += o.candidates
		if len(o.unit.Options) > 0 {
			res.Units = append(res.Units, o.unit)
		}
	}

	// Placement phase: on heterogeneous targets, propose one tier
	// assignment + copy plan as an annotation-only candidate unit. It is
	// memoized like any unit (keyed by the exact material the estimator
	// reads) and competes in the global knapsack below.
	if s.cfg.EnablePlacement {
		unit, cand, err := s.placementUnit(fc, od)
		if err != nil {
			return nil, err
		}
		res.CandidatesEvaluated += cand
		if unit != nil && len(unit.Options) > 0 {
			res.Units = append(res.Units, *unit)
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

// ReScore sums the re-evaluated gains of a plan under a new profile, with
// the same semantics as the package-level ReScore: options whose rewrite
// no longer verifies contribute no gain.
func (s *Session) ReScore(prof *profile.Profile, plan []*Option) float64 {
	if len(plan) == 0 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ensureEvaluator(prof)
	scores := make([]float64, len(plan))
	runIndexed(len(plan), s.cfg.searchWorkers(), func(i int) {
		if !s.verifier.verify(plan[i]) {
			return
		}
		scores[i] = s.ev.ScoreOption(plan[i])
	})
	var total float64
	for _, sc := range scores {
		total += sc
	}
	return total
}

// placementUnit runs the greedy N-tier placement search and wraps the
// resulting plan (when it beats the baseline placement) in a
// single-option unit. Outcomes — including "nothing profitable" — are
// memoized under the same material-fold discipline as pipelet units, so
// warm rounds with unchanged inputs skip the greedy search entirely.
func (s *Session) placementUnit(fc, od uint64) (*Unit, int, error) {
	if s.pm.NumTiers() < 2 {
		return nil, 0, nil
	}
	software := false
	for _, t := range s.prog.Tables {
		if t.TierFloor() > 0 {
			software = true
			break
		}
	}
	if !software {
		return nil, 0, nil
	}
	const key = "placement:*"
	mat := s.placementMaterial(fc, od)
	if e, ok := s.memo.Get(key); ok && slices.Equal(e.material, mat) {
		s.stats.UnitHits++
		if len(e.unit.Options) == 0 {
			return nil, e.candidates, nil
		}
		u := e.unit
		return &u, e.candidates, nil
	}
	s.stats.UnitMisses++

	maxMoves := s.cfg.MaxPlacementMoves
	if maxMoves <= 0 {
		maxMoves = 8
	}
	base := NewPlacement(s.prog, s.pm)
	baseLat, err := s.ev.HeteroLatency(base)
	if err != nil {
		return nil, 0, err
	}
	plan := s.ev.greedyPlacement(base, baseLat, maxMoves)
	var unit Unit
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
		unit = Unit{Name: "placement", Options: []*Option{o}}
	}
	s.memo.Put(key, &unitEntry{material: mat, unit: unit, candidates: 1})
	if len(unit.Options) == 0 {
		return nil, 1, nil
	}
	return &unit, 1, nil
}

// placementMaterial folds everything HeteroLatency reads from the view:
// per-node reach, each table's rate material (the update rate carries the
// tier update-stall term), and every edge's traffic share.
func (s *Session) placementMaterial(fc, od uint64) []uint64 {
	ev := s.ev
	m := make([]uint64, 0, 2+len(ev.reach)+4*ev.numTables+len(ev.share))
	m = append(m, fc, od)
	for i, r := range ev.reach {
		m = append(m, math.Float64bits(r))
		if i < ev.numTables {
			m = appendTableMaterial(m, ev, i)
		}
	}
	for _, sh := range ev.share {
		m = append(m, math.Float64bits(sh))
	}
	return m
}

// groupKey identifies a group unit by its entry branch and member
// composition, so a regrouping (after top-k churn) never aliases a stale
// entry.
func groupKey(g *pipelet.Group) string {
	var b strings.Builder
	b.WriteString("g:")
	b.WriteString(g.Branch)
	for _, m := range g.Members {
		b.WriteString("|")
		b.WriteString(m.String())
	}
	return b.String()
}

// pipeletMaterial folds every profile-dependent quantity LocalOptimize
// reads for this pipelet: the head's reach (the gain weight) and each
// member table's drop rate, action latency, cardinality, and update rate,
// plus the global flow cardinality and override digest.
func (s *Session) pipeletMaterial(p *pipelet.Pipelet, fc uint64, od uint64) []uint64 {
	m := make([]uint64, 0, 3+4*len(p.Tables))
	m = append(m, fc, od, math.Float64bits(s.ev.reachOf(p.Head())))
	for _, t := range p.Tables {
		m = appendTableMaterial(m, s.ev, s.ev.idxOf(t))
	}
	return m
}

// groupMaterial additionally folds the reach of every member table and
// branch node — groupCacheOption weighs member costs by per-table reach —
// and each member head's reach for the member enumerations.
func (s *Session) groupMaterial(g *pipelet.Group, fc uint64, od uint64) []uint64 {
	m := make([]uint64, 0, 4+len(g.Branches))
	m = append(m, fc, od, math.Float64bits(s.ev.reachOf(g.Branch)))
	for _, bn := range g.Branches {
		m = append(m, math.Float64bits(s.ev.reachOf(bn)))
	}
	for _, mem := range g.Members {
		m = append(m, math.Float64bits(s.ev.reachOf(mem.Head())))
		for _, t := range mem.Tables {
			m = append(m, math.Float64bits(s.ev.reachOf(t)))
			m = appendTableMaterial(m, s.ev, s.ev.idxOf(t))
		}
	}
	return m
}

func appendTableMaterial(m []uint64, ev *Evaluator, i int) []uint64 {
	if i < 0 || i >= ev.numTables {
		return append(m, 0, 0, 0, 0)
	}
	return append(m,
		math.Float64bits(ev.dropRate[i]),
		math.Float64bits(ev.actLat[i]),
		ev.card[i],
		math.Float64bits(ev.updRate[i]))
}

// overrideDigest folds the hit-rate-override map into one word, in sorted
// key order so the digest is deterministic. The runtime mutates this map
// between rounds (it is aliased, not copied, into the session's config);
// folding it into every unit's material invalidates exactly the rounds
// that saw a different override set.
func overrideDigest(o map[string]float64) uint64 {
	if len(o) == 0 {
		return 0
	}
	keys := make([]string, 0, len(o))
	for k := range o {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	var buf [8]byte
	for _, k := range keys {
		h.Write([]byte(k))
		bits := math.Float64bits(o[k])
		for b := 0; b < 8; b++ {
			buf[b] = byte(bits >> (8 * b))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}
