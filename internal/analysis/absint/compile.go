package absint

import (
	"math"
	"strconv"
	"strings"

	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
)

// plan is a program compiled for the interpreter: everything a run needs
// that does not depend on the incoming state or the forced branches.
type plan struct {
	err    error       // the program is unanalyzable; every run reports it
	fields *fieldTable // slot assignment of every mentioned field
	nodes  []cnode     // topological order; successors are indices into it
	index  map[string]int32
	names  []string // every node of the program, reachable or not
	root   int32
	egress int32 // len(nodes): the successor index of "", and the scratch row of the egress join

	maxKeys int
}

func (p *plan) nslots() int { return len(p.fields.names) }

// toNowhere is the successor code of a name outside the topological
// order: such a node is never executed, so flows to it are discarded.
// Egress is the index one past the last node (plan.egress).
const toNowhere int32 = -1

// unwritable is the fieldTable width of unknown non-meta fields: they read
// zero and swallow writes.
const unwritable = -1

// fieldTable assigns a state slot to every field a program mentions.
type fieldTable struct {
	names    []string
	slot     map[string]int32
	defaults []Value
	// width is what a write truncates to: the registry width of a header
	// field, 64 (no truncation) for metadata, unwritable otherwise.
	width []int
}

func (f *fieldTable) slotOf(name string) int32 {
	if i, ok := f.slot[name]; ok {
		return i
	}
	i := int32(len(f.names))
	f.slot[name] = i
	f.names = append(f.names, name)
	f.defaults = append(f.defaults, defaultValue(name))
	w := 64
	if !strings.HasPrefix(name, "meta.") {
		if packet.FieldIDFor(name) == packet.FieldInvalid {
			w = unwritable
		} else {
			w = packet.FieldWidth(name)
		}
	}
	f.width = append(f.width, w)
	return i
}

type nodeKind uint8

const (
	nodeTable nodeKind = iota
	nodeCond
	nodePass // cold runtime cache: forwards its in-state to next[0]
)

type cnode struct {
	name string
	kind nodeKind
	cond condExpr
	next [2]int32 // nodeCond: true arm, false arm; nodePass: the miss path
	tab  *ctable
}

type ctable struct {
	keys []ckey
	// match holds one row of len(keys) per entry.
	match    []cmatch
	entries  []centry
	mustHit  bool     // a miss is statically impossible
	def      *caction // miss action; nil for an actionless table
	baseNext int32
	writes   []int32 // slots any action of the table writes
}

type ckey struct {
	slot  int32
	width int
}

type cmatch struct {
	mask, val uint64
	monotone  bool // maskMonotone(mask, key width)
}

type centry struct {
	// live is false for structurally invalid entries (key arity mismatch;
	// gated upstream) and for the statically dead ones: dedup losers,
	// dominated and group-covered entries, which the emulator's lookup can
	// never pick — applying them would leak their writes into the egress
	// join and flag legal Figure-6 merges as inequivalent.
	live bool
	act  *caction  // nil when the entry names no action of its table
	args []operand // the entry's action data
}

type caction struct {
	name   string
	prims  []cprim // up to the first drop
	drops  bool
	next   int32
	writes []int32 // slots prims write
}

type primOp uint8

const (
	opSet primOp = iota
	opAdd
	opSub
)

// cprim is one field write: dst = a (opSet) or a ± b.
type cprim struct {
	op      primOp
	dst     int32
	a, b    operand
	checked bool // report a provably truncating operand (header writes other than forward)
}

type operandKind uint8

const (
	opdConst operandKind = iota
	opdSlot              // reads state slot idx
	opdArg               // reads action-data argument idx
)

type operand struct {
	kind operandKind
	idx  int32
	c    Value
}

// eval reads the operand. args is the executing entry's action data; nil
// on a default-action execution, where every argument reads zero, as do
// out-of-range ones.
func (o *operand) eval(st []Value, args []operand) Value {
	switch o.kind {
	case opdConst:
		return o.c
	case opdSlot:
		return st[o.idx]
	}
	if int(o.idx) < len(args) {
		return args[o.idx].eval(st, nil)
	}
	return Const(0)
}

func compile(prog *p4ir.Program) *plan {
	p := &plan{}
	if prog.Has("") {
		// p4ir's graph view treats "" as the egress sink, but the emulator
		// resolves it to the empty-named node: the two disagree on every
		// edge, so such (degenerate, loader-accepted) programs are
		// unanalyzable.
		p.err = errEmptyNodeName
		return p
	}
	order, err := prog.TopoOrder()
	if err != nil {
		p.err = err
		return p
	}
	p.names = prog.NodeNames()
	p.fields = &fieldTable{slot: map[string]int32{}}
	p.index = make(map[string]int32, len(order))
	for i, name := range order {
		p.index[name] = int32(i)
	}
	p.egress = int32(len(order))
	p.root = p.resolve(prog.Root)
	p.nodes = make([]cnode, len(order))
	for i, name := range order {
		nd := &p.nodes[i]
		nd.name = name
		if c, ok := prog.Conds[name]; ok {
			nd.kind = nodeCond
			nd.cond = parseCond(c.Expr)
			if nd.cond.kind == ckCompare {
				nd.cond.slot = p.fields.slotOf(nd.cond.field)
			}
			nd.next = [2]int32{p.resolve(c.TrueNext), p.resolve(c.FalseNext)}
			continue
		}
		t := prog.Tables[name]
		if spec, isCache := t.CacheMeta(); isCache && !spec.Prepopulated {
			nd.kind = nodePass
			nd.next[0] = p.resolve(spec.MissNext)
			continue
		}
		nd.tab = p.compileTable(t)
		if len(t.Keys) > p.maxKeys {
			p.maxKeys = len(t.Keys)
		}
	}
	return p
}

func (p *plan) resolve(next string) int32 {
	if next == "" {
		return p.egress
	}
	if i, ok := p.index[next]; ok {
		return i
	}
	return toNowhere
}

func (p *plan) compileTable(t *p4ir.Table) *ctable {
	ct := &ctable{baseNext: p.resolve(t.BaseNext)}
	for _, k := range t.Keys {
		ct.keys = append(ct.keys, ckey{slot: p.fields.slotOf(k.Field), width: k.BitWidth()})
	}

	acts := make([]*caction, len(t.Actions))
	byName := make(map[string]*caction, len(t.Actions))
	written := map[int32]bool{}
	for i, a := range t.Actions {
		acts[i] = p.compileAction(a, p.resolve(t.NextFor(a.Name)))
		if _, dup := byName[a.Name]; !dup {
			byName[a.Name] = acts[i]
		}
		for _, s := range acts[i].writes {
			if !written[s] {
				written[s] = true
				ct.writes = append(ct.writes, s)
			}
		}
	}
	ct.def = byName[t.DefaultAction]
	if ct.def == nil && len(acts) > 0 {
		// The emulator falls back to the last action when no default is
		// named.
		ct.def = acts[len(acts)-1]
	}

	facts := AnalyzeTable(t)
	ct.mustHit = facts.MustHit
	dead := make([]bool, len(t.Entries))
	for _, s := range facts.Shadows {
		dead[s.Entry] = true
	}
	nk := len(t.Keys)
	ct.match = make([]cmatch, len(t.Entries)*nk)
	ct.entries = make([]centry, len(t.Entries))
	for ei := range t.Entries {
		e := &t.Entries[ei]
		if len(e.Match) != nk || dead[ei] {
			continue
		}
		ce := &ct.entries[ei]
		ce.live = true
		for i, k := range t.Keys {
			mask := entryMask(k, e.Match[i])
			ct.match[ei*nk+i] = cmatch{
				mask:     mask,
				val:      e.Match[i].Value & mask,
				monotone: maskMonotone(mask, k.BitWidth()),
			}
		}
		if ce.act = byName[e.Action]; ce.act == nil {
			continue
		}
		for _, a := range e.Args {
			// Action data referencing action data reads zero.
			if strings.HasPrefix(a, "$") {
				ce.args = append(ce.args, operand{c: Const(0)})
			} else {
				ce.args = append(ce.args, p.baseOperand(a))
			}
		}
	}
	return ct
}

// entryMask derives the comparison mask of one entry key, matching the
// emulator's entryMasks.
func entryMask(k p4ir.Key, mv p4ir.MatchValue) uint64 {
	switch k.Kind {
	case p4ir.MatchExact:
		return k.FullMask()
	case p4ir.MatchLPM:
		return k.PrefixMask(mv.PrefixLen)
	default: // ternary / range
		return mv.Mask
	}
}

// compileAction lowers an action to its field writes the way the emulator
// compiles primitives: everything after a drop is dead, malformed
// primitives are no-ops, and writes to unknown non-meta fields are
// swallowed.
func (p *plan) compileAction(a *p4ir.Action, next int32) *caction {
	ca := &caction{name: a.Name, next: next}
	write := func(pr cprim, dst string) {
		pr.dst = p.fields.slotOf(dst)
		if p.fields.width[pr.dst] == unwritable {
			return
		}
		pr.checked = pr.checked && !strings.HasPrefix(dst, "meta.")
		ca.prims = append(ca.prims, pr)
		for _, s := range ca.writes {
			if s == pr.dst {
				return
			}
		}
		ca.writes = append(ca.writes, pr.dst)
	}
	for _, pr := range a.Primitives {
		switch pr.Op {
		case "drop", "mark_to_drop":
			ca.drops = true
			return ca
		case "modify_field":
			if len(pr.Args) >= 2 {
				write(cprim{op: opSet, a: p.operand(pr.Args[1]), checked: true}, pr.Args[0])
			}
		case "add", "subtract":
			if len(pr.Args) >= 3 {
				op := opAdd
				if pr.Op == "subtract" {
					op = opSub
				}
				write(cprim{op: op, a: p.operand(pr.Args[1]), b: p.operand(pr.Args[2]), checked: true}, pr.Args[0])
			}
		case "forward":
			if len(pr.Args) >= 1 {
				// forward writes meta.egress_port (full width, no truncation).
				write(cprim{op: opSet, a: p.operand(pr.Args[0])}, "meta.egress_port")
			}
		}
	}
	return ca
}

// operand mirrors the emulator's operand compilation: "$i" resolves entry
// action data (a negative or unparseable index reads zero), dotted names
// read fields, and anything else parses as a literal (unparseable reads
// zero).
func (p *plan) operand(arg string) operand {
	if strings.HasPrefix(arg, "$") {
		i, err := strconv.Atoi(arg[1:])
		if err != nil || i < 0 || i > math.MaxInt32 {
			return operand{c: Const(0)} // no entry carries that many arguments
		}
		return operand{kind: opdArg, idx: int32(i)}
	}
	return p.baseOperand(arg)
}

func (p *plan) baseOperand(arg string) operand {
	if p4ir.IsFieldRef(arg) {
		return operand{kind: opdSlot, idx: p.fields.slotOf(arg)}
	}
	v, err := strconv.ParseUint(arg, 0, 64)
	if err != nil {
		return operand{c: Const(0)}
	}
	return operand{c: Const(v)}
}

// parseCond mirrors nicsim's compileCond grammar. Expressions it cannot
// analyze (valid(...) headers, custom predicates, malformed literals) are
// ckUnknown, which the interpreter treats as "either arm" — always sound.
func parseCond(expr string) condExpr {
	s := strings.TrimSpace(expr)
	switch s {
	case "true", "":
		return condExpr{kind: ckConst, constVal: true}
	case "false":
		return condExpr{kind: ckConst, constVal: false}
	}
	if strings.HasPrefix(s, "valid(") {
		return condExpr{}
	}
	for _, op := range []string{"==", "!=", "<=", ">=", "<", ">"} {
		if i := strings.Index(s, op); i > 0 {
			field := strings.TrimSpace(s[:i])
			lit, err := strconv.ParseUint(strings.TrimSpace(s[i+len(op):]), 0, 64)
			if err != nil {
				return condExpr{}
			}
			return condExpr{kind: ckCompare, field: field, op: op, lit: lit}
		}
	}
	return condExpr{}
}
