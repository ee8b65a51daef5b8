package absint

// The map-based interpreter the dense one replaced, kept verbatim as the
// oracle of TestDenseMatchesReference: states are map[string]Value cloned
// per entry and joined into fresh maps, and every run re-derives the
// topological order, parsed conditionals, masks and operands.

import (
	"bytes"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
)

type refNodeResult struct {
	Reachable    bool
	In           refState
	EntryMay     []bool
	EntryMust    []bool
	MissPossible bool
	CondKnown    bool
	CondDecided  bool
	CondTaken    bool
}

type refClassOutcome struct {
	Feasible bool
	MayDrop  bool
	MustDrop bool
	Egress   refState
}

type refResult struct {
	Outcome     refClassOutcome
	Nodes       map[string]*refNodeResult
	Truncations []Truncation
}

type refTableFacts struct {
	dead    []bool // nil = none
	mustHit bool
}

type refAnalyzer struct {
	prog  *p4ir.Program
	facts map[string]refTableFacts
}

func newRefAnalyzer(prog *p4ir.Program) *refAnalyzer {
	return &refAnalyzer{prog: prog, facts: map[string]refTableFacts{}}
}

func (a *refAnalyzer) tableFacts(t *p4ir.Table) refTableFacts {
	f, ok := a.facts[t.Name]
	if !ok {
		tf := AnalyzeTable(t)
		if len(tf.Shadows) > 0 {
			f.dead = make([]bool, len(t.Entries))
			for _, s := range tf.Shadows {
				f.dead[s.Entry] = true
			}
		}
		f.mustHit = tf.MustHit
		a.facts[t.Name] = f
	}
	return f
}

func (a *refAnalyzer) Analyze() (*refResult, error) { return a.run(nil, true) }

func (a *refAnalyzer) Exec(forced map[string]bool) (refClassOutcome, error) {
	r, err := a.run(forced, false)
	if err != nil {
		return refClassOutcome{}, err
	}
	return r.Outcome, nil
}

// refState maps field names to abstract values. Fields absent from the map
// hold their default: header fields are parser-extracted and unconstrained
// within their registry width, metadata starts zeroed, and unknown
// non-meta fields read zero (mirroring the emulator's FieldInvalid
// fallback).
type refState map[string]Value

// Get reads a field, falling back to its initial-value default.
func (s refState) Get(field string) Value {
	if v, ok := s[field]; ok {
		return v
	}
	return defaultValue(field)
}

// set models a field write with the emulator's truncation semantics:
// header fields store value mod 2^width, metadata stores the full 64-bit
// value, and writes to unknown non-meta fields are dropped.
func (s refState) set(field string, v Value) {
	if strings.HasPrefix(field, "meta.") {
		s[field] = v
		return
	}
	if packet.FieldIDFor(field) == packet.FieldInvalid {
		return
	}
	s[field] = v.Truncate(packet.FieldWidth(field))
}

func (s refState) clone() refState {
	out := make(refState, len(s)+2)
	for f, v := range s {
		out[f] = v
	}
	return out
}

// refJoinState is the field-wise least upper bound; missing fields join
// through their defaults. a may be nil (unreached): the result is then b.
func refJoinState(a, b refState) refState {
	if a == nil {
		return b.clone()
	}
	out := make(refState, len(a)+len(b))
	for f := range a {
		out[f] = a[f].Join(b.Get(f))
	}
	for f := range b {
		if _, ok := out[f]; !ok {
			out[f] = b[f].Join(a.Get(f))
		}
	}
	return out
}

func (a *refAnalyzer) run(forced map[string]bool, collect bool) (*refResult, error) {
	prog := a.prog
	if prog.Has("") {
		// p4ir's graph view treats "" as the egress sink, but the emulator
		// resolves it to the empty-named node: the two disagree on every
		// edge, so such (degenerate, loader-accepted) programs are
		// unanalyzable.
		return nil, errEmptyNodeName
	}
	order, err := prog.TopoOrder()
	if err != nil {
		return nil, err
	}
	res := &refResult{}
	if collect {
		res.Nodes = make(map[string]*refNodeResult, prog.NumNodes())
		for _, name := range prog.NodeNames() {
			res.Nodes[name] = &refNodeResult{}
		}
	}

	in := make(map[string]refState, len(order))
	var egress refState
	egressReached := false
	mayDrop := false

	flow := func(next string, st refState) {
		if next == "" {
			egress = refJoinState(egress, st)
			egressReached = true
			return
		}
		in[next] = refJoinState(in[next], st)
	}

	if prog.Root == "" {
		flow("", refState{})
	} else {
		in[prog.Root] = refState{}
	}

	for _, name := range order {
		st, reached := in[name]
		if !reached {
			continue
		}
		var nr *refNodeResult
		if collect {
			nr = res.Nodes[name]
			nr.Reachable = true
			nr.In = st
		}
		if c, ok := prog.Conds[name]; ok {
			refRunCond(c, st, forced, nr, flow)
			continue
		}
		t := prog.Tables[name]
		if spec, isCache := t.CacheMeta(); isCache && !spec.Prepopulated {
			// Runtime flow caches are cold at deploy time and record only
			// outcomes their covers produced: the deploy-time semantics is
			// the always-miss path, which executes the covers unchanged.
			flow(spec.MissNext, st.clone())
			continue
		}
		var rec refTruncRec
		if collect {
			node := name
			rec = func(action, field string, v Value, w int) {
				res.Truncations = append(res.Truncations, Truncation{
					Node: node, Action: action, Field: field, Value: v, Width: w,
				})
			}
		}
		if refRunTable(t, a.tableFacts(t), st, nr, flow, rec) {
			mayDrop = true
		}
	}

	res.Outcome = refClassOutcome{
		Feasible: egressReached || mayDrop,
		MayDrop:  mayDrop,
		MustDrop: mayDrop && !egressReached,
		Egress:   egress,
	}
	return res, nil
}

func refRunCond(c *p4ir.Conditional, st refState, forced map[string]bool, nr *refNodeResult, flow func(string, refState)) {
	ce := parseCond(c.Expr)
	mayT, mayF := true, true
	stT, stF := st, st
	switch ce.kind {
	case ckConst:
		mayT, mayF = ce.constVal, !ce.constVal
	case ckCompare:
		v := st.Get(ce.field)
		var refT, refF Value
		mayT, mayF, refT, refF = evalCompare(v, ce.op, ce.lit)
		if mayT {
			stT = st.clone()
			stT.set2(ce.field, refT)
		}
		if mayF {
			stF = st.clone()
			stF.set2(ce.field, refF)
		}
	}
	if nr != nil {
		nr.CondKnown = ce.kind != ckUnknown
		nr.CondDecided = mayT != mayF
		nr.CondTaken = mayT
	}
	if forced != nil {
		if d, ok := forced[c.Name]; ok {
			if d {
				mayF = false
			} else {
				mayT = false
			}
		}
	}
	if mayT {
		flow(c.TrueNext, stT.clone())
	}
	if mayF {
		flow(c.FalseNext, stF.clone())
	}
}

// set2 stores a refined value verbatim: refinement narrows an existing
// read, so no truncation applies (the read already was in-range).
func (s refState) set2(field string, v Value) {
	if packet.FieldIDFor(field) == packet.FieldInvalid && !strings.HasPrefix(field, "meta.") {
		return
	}
	s[field] = v
}

// refTruncRec receives range-proven truncating writes (nil = don't record).
type refTruncRec func(action, field string, v Value, w int)

// refRunTable abstractly executes one match-action table. facts.dead marks
// entries the emulator's lookup provably never selects (nil = none);
// their actions are not applied and they contribute to neither match
// feasibility nor miss exclusion — sound because a dead entry's match set
// is covered by its killers', so any must-match it would assert holds
// transitively for a live entry. facts.mustHit statically rules out the
// miss path. Reports whether some path through the table drops.
func refRunTable(t *p4ir.Table, facts refTableFacts, st refState, nr *refNodeResult, flow func(string, refState), rec refTruncRec) bool {
	keyVals := make([]Value, len(t.Keys))
	for i, k := range t.Keys {
		keyVals[i] = st.Get(k.Field).Truncate(k.BitWidth())
	}

	may := make([]bool, len(t.Entries))
	must := make([]bool, len(t.Entries))
	missPossible := !facts.mustHit
	for ei := range t.Entries {
		e := &t.Entries[ei]
		if len(e.Match) != len(t.Keys) {
			continue // structurally invalid entry; gated upstream
		}
		if facts.dead != nil && facts.dead[ei] {
			continue // shadowed: never selected, may/must stay false
		}
		entryMay, entryMust := true, true
		for i, k := range t.Keys {
			mask := entryMask(k, e.Match[i])
			val := e.Match[i].Value & mask
			w := k.BitWidth()
			if !keyVals[i].MayMatch(mask, val, w) {
				entryMay, entryMust = false, false
				break
			}
			if !keyVals[i].MustMatch(mask, val, w) {
				entryMust = false
			}
		}
		may[ei], must[ei] = entryMay, entryMust
		if entryMust {
			missPossible = false
		}
	}
	if nr != nil {
		nr.EntryMay, nr.EntryMust, nr.MissPossible = may, must, missPossible
	}

	dropped := false
	apply := func(act *p4ir.Action, args []string) {
		out, drops := refApplyAction(st, act, args, rec)
		if drops {
			dropped = true
			return
		}
		flow(t.NextFor(act.Name), out)
	}
	for ei := range t.Entries {
		if !may[ei] {
			continue
		}
		if act := t.Action(t.Entries[ei].Action); act != nil {
			apply(act, t.Entries[ei].Args)
		}
	}
	if missPossible {
		def := t.Action(t.DefaultAction)
		if def == nil && len(t.Actions) > 0 {
			// The emulator falls back to the last action when no default
			// is named.
			def = t.Actions[len(t.Actions)-1]
		}
		if def == nil {
			// Actionless table: pure forwarding node.
			flow(t.BaseNext, st.clone())
		} else {
			apply(def, nil)
		}
	}
	return dropped
}

// refApplyAction is the abstract transfer function of one action, mirroring
// the emulator's compiled primitives: a drop terminates the action
// immediately, malformed primitives are no-ops, and unknown destination
// fields swallow the write.
func refApplyAction(st refState, act *p4ir.Action, args []string, rec refTruncRec) (refState, bool) {
	out := st.clone()
	write := func(field string, v Value) {
		refNoteTrunc(rec, act.Name, field, v)
		out.set(field, v)
	}
	for _, pr := range act.Primitives {
		switch pr.Op {
		case "drop", "mark_to_drop":
			return out, true
		case "modify_field":
			if len(pr.Args) >= 2 {
				write(pr.Args[0], refEvalOperand(out, pr.Args[1], args))
			}
		case "add", "subtract":
			if len(pr.Args) >= 3 {
				a := refEvalOperand(out, pr.Args[1], args)
				b := refEvalOperand(out, pr.Args[2], args)
				if pr.Op == "add" {
					write(pr.Args[0], a.Add(b))
				} else {
					write(pr.Args[0], a.Sub(b))
				}
			}
		case "forward":
			if len(pr.Args) >= 1 {
				// forward writes meta.egress_port (full width, no truncation).
				out.set("meta.egress_port", refEvalOperand(out, pr.Args[0], args))
			}
		}
	}
	return out, false
}

// refNoteTrunc reports the write to rec when the operand provably exceeds
// the destination header field's width (metadata and unknown destinations
// never truncate).
func refNoteTrunc(rec refTruncRec, action, field string, v Value) {
	if rec == nil || strings.HasPrefix(field, "meta.") {
		return
	}
	if packet.FieldIDFor(field) == packet.FieldInvalid {
		return
	}
	w := packet.FieldWidth(field)
	if w >= 64 {
		return
	}
	if v.Lo > (uint64(1)<<w)-1 {
		rec(action, field, v, w)
	}
}

// refEvalOperand mirrors the emulator's operand compilation and evaluation:
// "$i" resolves entry action-data (out-of-range, negative, or
// $-referencing data reads zero; a nil args slice is a default-action
// execution where every $i reads zero), dotted names read fields, and
// anything else parses as a literal (unparseable reads zero).
func refEvalOperand(st refState, arg string, args []string) Value {
	if strings.HasPrefix(arg, "$") {
		i, err := strconv.Atoi(arg[1:])
		if err != nil || i < 0 || i >= len(args) {
			return Const(0)
		}
		a := args[i]
		if strings.HasPrefix(a, "$") {
			return Const(0)
		}
		return refEvalBase(st, a)
	}
	return refEvalBase(st, arg)
}

func refEvalBase(st refState, arg string) Value {
	if p4ir.IsFieldRef(arg) {
		return st.Get(arg)
	}
	v, err := strconv.ParseUint(arg, 0, 64)
	if err != nil {
		return Const(0)
	}
	return Const(v)
}

// diffAgainstReference runs the dense interpreter and the map-based
// reference over prog — the whole-space analysis plus every path class
// over its first maxConds conditionals — and returns the first
// disagreement, or "" when they agree on every node result, truncation,
// feasibility and drop flag, and on the egress value of every field either
// side tracks.
func diffAgainstReference(prog *p4ir.Program, maxConds int) string {
	an, ref := NewAnalyzer(prog), newRefAnalyzer(prog)
	res, err := an.Analyze()
	want, wantErr := ref.Analyze()
	if (err != nil) != (wantErr != nil) {
		return fmt.Sprintf("Analyze error: dense %v, reference %v", err, wantErr)
	}
	if err != nil {
		return ""
	}
	if d := diffOutcome(res.Outcome, want.Outcome); d != "" {
		return "Analyze outcome: " + d
	}
	if len(res.Nodes) != len(want.Nodes) {
		return fmt.Sprintf("Analyze: %d node results, reference %d", len(res.Nodes), len(want.Nodes))
	}
	for name, w := range want.Nodes {
		g := res.Nodes[name]
		if g == nil {
			return fmt.Sprintf("node %q: no dense result", name)
		}
		if g.Reachable != w.Reachable || g.MissPossible != w.MissPossible ||
			g.CondKnown != w.CondKnown || g.CondDecided != w.CondDecided || g.CondTaken != w.CondTaken ||
			!reflect.DeepEqual(g.EntryMay, w.EntryMay) || !reflect.DeepEqual(g.EntryMust, w.EntryMust) {
			return fmt.Sprintf("node %q: dense %+v, reference %+v", name, *g, *w)
		}
		if d := diffState(g.In, w.In); d != "" {
			return fmt.Sprintf("node %q in-state: %s", name, d)
		}
	}
	if !reflect.DeepEqual(res.Truncations, want.Truncations) {
		return fmt.Sprintf("truncations: dense %+v, reference %+v", res.Truncations, want.Truncations)
	}

	conds := CondNames(prog)
	if len(conds) > maxConds {
		conds = conds[:maxConds]
	}
	for bits := 0; bits < 1<<len(conds); bits++ {
		forced := make(map[string]bool, len(conds))
		for i, c := range conds {
			forced[c] = bits>>i&1 == 1
		}
		got, err := an.Exec(forced)
		if err != nil {
			return fmt.Sprintf("class %b: %v", bits, err)
		}
		want, err := ref.Exec(forced)
		if err != nil {
			return fmt.Sprintf("class %b: reference: %v", bits, err)
		}
		if d := diffOutcome(got, want); d != "" {
			return fmt.Sprintf("class %b: %s", bits, d)
		}
	}
	return ""
}

func diffOutcome(got ClassOutcome, want refClassOutcome) string {
	if got.Feasible != want.Feasible || got.MayDrop != want.MayDrop || got.MustDrop != want.MustDrop {
		return fmt.Sprintf("dense feasible=%v may=%v must=%v, reference feasible=%v may=%v must=%v",
			got.Feasible, got.MayDrop, got.MustDrop, want.Feasible, want.MayDrop, want.MustDrop)
	}
	return diffState(got.Egress, want.Egress)
}

// diffState compares the two representations over the union of the fields
// either tracks explicitly; everything else holds the shared default.
func diffState(got *State, want refState) string {
	if (got == nil) != (want == nil) {
		return fmt.Sprintf("dense state nil=%v, reference nil=%v", got == nil, want == nil)
	}
	for _, f := range got.Fields() {
		if g, w := got.Get(f), want.Get(f); g != w {
			return fmt.Sprintf("%s: dense %+v, reference %+v", f, g, w)
		}
	}
	for f, w := range want {
		if g := got.Get(f); g != w {
			return fmt.Sprintf("%s: dense %+v, reference %+v", f, g, w)
		}
	}
	return ""
}

// FuzzDenseMatchesReference holds the dense interpreter to the map-based
// reference on what the synthesized corpus of TestDenseMatchesReference
// never contains: fuzzer-mangled programs with unknown fields, malformed
// primitives, dangling action data and cache annotations.
func FuzzDenseMatchesReference(f *testing.F) {
	f.Add([]byte(`{"name":"y","init_table":"c","tables":[{"name":"t","key":[{"target":"tcp.dport","match_type":"ternary","width":16}],"actions":[{"name":"m","primitives":[{"op":"add","parameters":["meta.n","meta.n","$0"]},{"op":"modify_field","parameters":["bogus","$7"]}]}],"entries":[{"priority":2,"match_key":[{"value":80,"mask":65520}],"action_name":"m","action_data":["5"]}]}],"conditionals":[{"name":"c","expression":"ipv4.proto == 6","true_next":"t","false_next":""}]}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		prog, err := p4ir.Load(bytes.NewReader(data))
		if err != nil || prog.Validate() != nil {
			return
		}
		if d := diffAgainstReference(prog, 4); d != "" {
			t.Fatal(d)
		}
	})
}
