package absint

import (
	"errors"
	"strings"
	"sync"

	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
)

// errEmptyNodeName rejects programs containing a node literally named "".
var errEmptyNodeName = errors.New("absint: program contains a node with an empty name")

// State is the abstract value of every field one program mentions, stored
// densely: the analyzer's field table assigns each mentioned field a slot,
// pre-filled with the field's default. Fields the program never mentions
// have no slot and always hold their default: header fields are
// parser-extracted and unconstrained within their registry width, metadata
// starts zeroed, and unknown non-meta fields read zero (mirroring the
// emulator's FieldInvalid fallback).
type State struct {
	fields *fieldTable
	vals   []Value
}

// Get reads a field, falling back to its initial-value default.
func (s *State) Get(field string) Value {
	if s != nil {
		if i, ok := s.fields.slot[field]; ok {
			return s.vals[i]
		}
	}
	return defaultValue(field)
}

// Fields lists the fields the state tracks explicitly (every field its
// program mentions); all others hold their default.
func (s *State) Fields() []string {
	if s == nil {
		return nil
	}
	return s.fields.names
}

func defaultValue(field string) Value {
	if strings.HasPrefix(field, "meta.") {
		return Const(0)
	}
	if packet.FieldIDFor(field) == packet.FieldInvalid {
		return Const(0)
	}
	return TopWidth(packet.FieldWidth(field))
}

// NodeResult is the per-node outcome of Analyze.
type NodeResult struct {
	// Reachable reports whether any abstract path visits the node. False
	// implies no concrete packet can reach it (the abstraction only
	// over-approximates).
	Reachable bool
	// In is the join of the abstract states over all paths reaching the
	// node (nil unless Reachable).
	In *State
	// EntryMay / EntryMust are per-entry match feasibility under In
	// (tables only): EntryMay[i]==false proves entry i can never match;
	// EntryMust[i]==true proves it always matches.
	EntryMay  []bool
	EntryMust []bool
	// MissPossible reports whether the default action can execute.
	MissPossible bool
	// CondKnown marks conditionals whose expression the analyzable
	// grammar covers; CondDecided/CondTaken report a branch whose outcome
	// is proven under In.
	CondKnown   bool
	CondDecided bool
	CondTaken   bool
}

// ClassOutcome summarizes one abstract execution of a program: whether
// any path terminates, drop behaviour, and the join of all non-dropped
// terminal (egress) states. Writes on dropped paths are unobservable and
// excluded from Egress.
type ClassOutcome struct {
	// Feasible reports that at least one abstract path terminates (by
	// egress or drop).
	Feasible bool
	// MayDrop / MustDrop bound drop behaviour: MustDrop means no abstract
	// path reaches egress, so every concrete packet in the class drops.
	MayDrop  bool
	MustDrop bool
	// Egress is the join of the non-dropped terminal states (nil when no
	// path reaches egress).
	Egress *State
}

// Truncation records one provably-truncating header write found during
// analysis: every value the operand can take exceeds the destination
// field's width, so the write always loses high bits.
type Truncation struct {
	Node, Action, Field string
	// Value is the operand's abstract value before truncation; Width the
	// destination width it is cut to.
	Value Value
	Width int
}

// Result bundles the whole-program analysis.
type Result struct {
	Outcome ClassOutcome
	Nodes   map[string]*NodeResult
	// Truncations lists range-proven truncating writes on reachable paths.
	Truncations []Truncation
}

// Analyzer runs the abstract interpreter over one program. Construction
// compiles everything a run would otherwise re-derive — the semantic
// checker abstractly executes the same program once per path class — into
// a plan: topological order with successors as indices, a field→slot
// table, parsed conditionals, per-entry masks and values with the
// statically dead entries (TableShadows) marked, and actions with
// pre-resolved operands. Runs execute that plan on dense states from a
// scratch free list. Safe for concurrent use.
type Analyzer struct {
	plan *plan

	mu   sync.Mutex
	free []*scratch
}

// NewAnalyzer compiles prog. The analyzer keeps no reference to the
// program's entries: a program mutated afterwards needs a new analyzer.
func NewAnalyzer(prog *p4ir.Program) *Analyzer {
	return &Analyzer{plan: compile(prog)}
}

// Analyze runs the forward interpreter over every path of the program
// (both arms of every conditional) and returns per-node reachability,
// field states, and entry feasibility. The program must be structurally
// valid (acyclic, no dangling references).
func (a *Analyzer) Analyze() (*Result, error) {
	res := &Result{}
	out, err := a.run(nil, res)
	if err != nil {
		return nil, err
	}
	res.Outcome = out
	return res, nil
}

// Exec abstractly executes the program under a path class: conditionals
// named in forced take only the given branch (when feasible), all others
// contribute both arms. A nil forced map executes the full packet space.
func (a *Analyzer) Exec(forced map[string]bool) (ClassOutcome, error) {
	return a.run(forced, nil)
}

// Analyze is the one-shot form of Analyzer.Analyze.
func Analyze(prog *p4ir.Program) (*Result, error) {
	return NewAnalyzer(prog).Analyze()
}

// Exec is the one-shot form of Analyzer.Exec.
func Exec(prog *p4ir.Program, forced map[string]bool) (ClassOutcome, error) {
	return NewAnalyzer(prog).Exec(forced)
}

// CondNames returns the reachable conditionals in topological order — the
// branch variables path-class enumeration forks on.
func CondNames(prog *p4ir.Program) []string {
	order, err := prog.TopoOrder()
	if err != nil {
		return nil
	}
	var out []string
	for _, name := range order {
		if _, ok := prog.Conds[name]; ok {
			out = append(out, name)
		}
	}
	return out
}

// scratch is the mutable memory of one run: the in-state of every node
// (row i of vals; row plan.egress is the egress join), which rows have been
// reached, and the per-table working buffers.
type scratch struct {
	vals    []Value // (len(nodes)+1) rows of nslots
	reached []bool
	// joined[i] is the table node one of whose outcomes row i last absorbed
	// in full; further outcomes of that table join only the slots its
	// actions write (see flowFrom).
	joined []int32
	tmp    []Value // the executing table's in-state plus one action's writes
	keys   []Value
	force  []int8 // per node: 0 unforced, 1 only the true arm, 2 only the false arm
}

func (a *Analyzer) getScratch() *scratch {
	a.mu.Lock()
	if n := len(a.free); n > 0 {
		sc := a.free[n-1]
		a.free = a.free[:n-1]
		a.mu.Unlock()
		return sc
	}
	a.mu.Unlock()
	p := a.plan
	rows := len(p.nodes) + 1
	return &scratch{
		vals:    make([]Value, rows*p.nslots()),
		reached: make([]bool, rows),
		joined:  make([]int32, rows),
		tmp:     make([]Value, p.nslots()),
		keys:    make([]Value, p.maxKeys),
		force:   make([]int8, len(p.nodes)),
	}
}

func (a *Analyzer) putScratch(sc *scratch) {
	a.mu.Lock()
	a.free = append(a.free, sc)
	a.mu.Unlock()
}

// exec is one run in flight.
type exec struct {
	p   *plan
	sc  *scratch
	res *Result // nil unless collecting per-node results and truncations
}

func (x *exec) row(i int32) []Value {
	n := x.p.nslots()
	return x.sc.vals[int(i)*n : (int(i)+1)*n]
}

// snapshot copies a state row out of the scratch.
func (x *exec) snapshot(row []Value) *State {
	return &State{fields: x.p.fields, vals: append([]Value(nil), row...)}
}

// flow joins src, a complete state, into the in-state of successor to.
func (x *exec) flow(to int32, src []Value) {
	if to == toNowhere {
		return
	}
	dst := x.row(to)
	if !x.sc.reached[to] {
		x.sc.reached[to] = true
		copy(dst, src)
		return
	}
	for s := range dst {
		dst[s] = dst[s].Join(src[s])
	}
}

// flowFrom is flow for the outcomes of one table execution: src is the
// table's in-state plus one action's writes, so once a successor has
// absorbed one such outcome in full, later ones can only differ from what
// it holds in the slots the table's actions write.
func (x *exec) flowFrom(table, to int32, src []Value, writes []int32) {
	if to == toNowhere {
		return
	}
	if x.sc.reached[to] && x.sc.joined[to] == table {
		dst := x.row(to)
		for _, s := range writes {
			dst[s] = dst[s].Join(src[s])
		}
		return
	}
	x.flow(to, src)
	x.sc.joined[to] = table
}

// run executes the plan once. A non-nil res additionally collects the
// per-node results and truncations.
func (a *Analyzer) run(forced map[string]bool, res *Result) (ClassOutcome, error) {
	p := a.plan
	if p.err != nil {
		return ClassOutcome{}, p.err
	}
	sc := a.getScratch()
	defer a.putScratch(sc)
	for i := range sc.reached {
		sc.reached[i] = false
		sc.joined[i] = -1
	}
	clear(sc.force)
	for name, taken := range forced {
		if i, ok := p.index[name]; ok {
			if taken {
				sc.force[i] = 1
			} else {
				sc.force[i] = 2
			}
		}
	}

	x := exec{p: p, sc: sc, res: res}
	if res != nil {
		res.Nodes = make(map[string]*NodeResult, len(p.names))
		for _, name := range p.names {
			res.Nodes[name] = &NodeResult{}
		}
	}

	x.flow(p.root, p.fields.defaults)
	mayDrop := false
	for i := range p.nodes {
		if !sc.reached[i] {
			continue
		}
		nd := &p.nodes[i]
		st := x.row(int32(i))
		var nr *NodeResult
		if res != nil {
			nr = res.Nodes[nd.name]
			nr.Reachable = true
			nr.In = x.snapshot(st)
		}
		switch nd.kind {
		case nodeCond:
			x.runCond(nd, st, sc.force[i], nr)
		case nodePass:
			// Runtime flow caches are cold at deploy time and record only
			// outcomes their covers produced: the deploy-time semantics is
			// the always-miss path, which executes the covers unchanged.
			x.flow(nd.next[0], st)
		default:
			if x.runTable(int32(i), nd, st, nr) {
				mayDrop = true
			}
		}
	}

	out := ClassOutcome{
		Feasible: sc.reached[p.egress] || mayDrop,
		MayDrop:  mayDrop,
		MustDrop: mayDrop && !sc.reached[p.egress],
	}
	if sc.reached[p.egress] {
		out.Egress = x.snapshot(x.row(p.egress))
	}
	return out, nil
}

func (x *exec) runCond(nd *cnode, st []Value, force int8, nr *NodeResult) {
	ce := &nd.cond
	mayT, mayF := true, true
	var refT, refF Value
	switch ce.kind {
	case ckConst:
		mayT, mayF = ce.constVal, !ce.constVal
	case ckCompare:
		mayT, mayF, refT, refF = evalCompare(st[ce.slot], ce.op, ce.lit)
	}
	if nr != nil {
		nr.CondKnown = ce.kind != ckUnknown
		nr.CondDecided = mayT != mayF
		nr.CondTaken = mayT
	}
	switch force {
	case 1:
		mayF = false
	case 2:
		mayT = false
	}
	// A compared field is refined on each arm; the refinement narrows an
	// existing read, so it is stored verbatim (no truncation applies).
	// Comparisons of unknown non-meta fields, which always read zero,
	// refine nothing.
	refine := ce.kind == ckCompare && x.p.fields.width[ce.slot] != unwritable
	var old Value
	if refine {
		old = st[ce.slot]
	}
	if mayT {
		if refine {
			st[ce.slot] = refT
		}
		x.flow(nd.next[0], st)
	}
	if mayF {
		if refine {
			st[ce.slot] = refF
		}
		x.flow(nd.next[1], st)
	}
	if refine {
		st[ce.slot] = old
	}
}

// runTable abstractly executes one match-action table. Entries the
// emulator's lookup provably never selects (dead) are not applied and
// contribute to neither match feasibility nor miss exclusion — sound
// because a dead entry's match set is covered by its killers', so any
// must-match it would assert holds transitively for a live entry. mustHit
// statically rules out the miss path. Reports whether some path through
// the table drops.
func (x *exec) runTable(self int32, nd *cnode, st []Value, nr *NodeResult) bool {
	t := nd.tab
	keyVals := x.sc.keys[:len(t.keys)]
	for i, k := range t.keys {
		keyVals[i] = st[k.slot].Truncate(k.width)
	}
	var may, must []bool
	if nr != nil {
		may = make([]bool, len(t.entries))
		must = make([]bool, len(t.entries))
	}
	tmp := x.sc.tmp
	copy(tmp, st)
	dropped := false
	apply := func(act *caction, args []operand) {
		if act.drops && x.res == nil {
			dropped = true // writes before a drop are unobservable
			return
		}
		x.applyAction(nd.name, act, args, tmp)
		if act.drops {
			dropped = true
		} else {
			x.flowFrom(self, act.next, tmp, t.writes)
		}
		for _, s := range act.writes {
			tmp[s] = st[s]
		}
	}

	missPossible := !t.mustHit
	nk := len(t.keys)
	for ei := range t.entries {
		e := &t.entries[ei]
		if !e.live {
			continue // malformed or shadowed: never selected, may/must stay false
		}
		entryMay, entryMust := true, true
		for i, m := range t.match[ei*nk : (ei+1)*nk] {
			if !keyVals[i].mayMatch(m.mask, m.val, m.monotone) {
				entryMay, entryMust = false, false
				break
			}
			if !keyVals[i].mustMatch(m.mask, m.val, m.monotone) {
				entryMust = false
			}
		}
		if nr != nil {
			may[ei], must[ei] = entryMay, entryMust
		}
		if entryMust {
			missPossible = false
		}
		if entryMay && e.act != nil {
			apply(e.act, e.args)
		}
	}
	if nr != nil {
		nr.EntryMay, nr.EntryMust, nr.MissPossible = may, must, missPossible
	}
	if missPossible {
		if t.def == nil {
			// Actionless table: pure forwarding node.
			x.flow(t.baseNext, st)
		} else {
			apply(t.def, nil)
		}
	}
	return dropped
}

// applyAction is the abstract transfer function of one action on st,
// mirroring the emulator's compiled primitives: a drop terminates the
// action immediately, malformed primitives are no-ops, and unknown
// destination fields swallow the write (compile drops both). When
// collecting, header writes whose operand provably exceeds the
// destination width are recorded.
func (x *exec) applyAction(node string, act *caction, args []operand, st []Value) {
	f := x.p.fields
	for i := range act.prims {
		pr := &act.prims[i]
		v := pr.a.eval(st, args)
		switch pr.op {
		case opAdd:
			v = v.Add(pr.b.eval(st, args))
		case opSub:
			v = v.Sub(pr.b.eval(st, args))
		}
		w := f.width[pr.dst]
		if x.res != nil && pr.checked && v.Lo > widthMask(w) {
			x.res.Truncations = append(x.res.Truncations, Truncation{
				Node: node, Action: act.name, Field: f.names[pr.dst], Value: v, Width: w,
			})
		}
		st[pr.dst] = v.Truncate(w)
	}
}

type condKind uint8

const (
	ckUnknown condKind = iota // outside the grammar: both arms possible
	ckConst                   // "true" / "false" / ""
	ckCompare                 // <field> <op> <literal>
)

type condExpr struct {
	kind     condKind
	constVal bool
	field    string
	slot     int32 // of field, set by compile
	op       string
	lit      uint64
}

// evalCompare decides a field-vs-literal comparison abstractly. It
// returns whether each arm is possible and the value refined under each
// arm (valid only when the arm is possible).
func evalCompare(v Value, op string, lit uint64) (mayT, mayF bool, refT, refF Value) {
	iv := func(lo, hi uint64) Value { return Value{Lo: lo, Hi: hi} }
	meet := func(r Value) (Value, bool) { return v.Meet(r) }
	switch op {
	case "==":
		refT, mayT = meet(Const(lit))
		refF, mayF = excludePoint(v, lit)
	case "!=":
		refT, mayT = excludePoint(v, lit)
		refF, mayF = meet(Const(lit))
	case "<":
		if lit > 0 {
			refT, mayT = meet(iv(0, lit-1))
		}
		refF, mayF = meet(iv(lit, ^uint64(0)))
	case "<=":
		refT, mayT = meet(iv(0, lit))
		if lit < ^uint64(0) {
			refF, mayF = meet(iv(lit+1, ^uint64(0)))
		}
	case ">":
		if lit < ^uint64(0) {
			refT, mayT = meet(iv(lit+1, ^uint64(0)))
		}
		refF, mayF = meet(iv(0, lit))
	case ">=":
		refT, mayT = meet(iv(lit, ^uint64(0)))
		if lit > 0 {
			refF, mayF = meet(iv(0, lit-1))
		}
	default:
		return true, true, v, v
	}
	return
}

// excludePoint refines v under "!= lit": the interval shrinks only when
// lit sits on an endpoint; emptiness means v must equal lit.
func excludePoint(v Value, lit uint64) (Value, bool) {
	if !v.Contains(lit) {
		return v, true
	}
	if v.Lo == v.Hi {
		return Value{}, false
	}
	out := v
	if lit == v.Lo {
		out.Lo++
	} else if lit == v.Hi {
		out.Hi--
	}
	if n, ok := out.normalize(); ok {
		return n, true
	}
	return Value{}, false
}
