package absint

import (
	"slices"
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
	cond p4ir.Cond
	slot int32    // of cond.Field, for a comparison
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

// cprim is one field write: dst = a ± b for PrimAdd and PrimSub, dst = a
// for the others (set and forward).
type cprim struct {
	op      p4ir.PrimKind
	dst     int32
	a, b    operand
	checked bool // report a provably truncating operand (header writes other than forward)
}

// operand is a compiled p4ir.Operand: a constant c, state slot idx
// (OperandField) or action datum idx (OperandArg).
type operand struct {
	kind p4ir.OperandKind
	idx  int32
	c    Value
}

// eval reads the operand. args is the executing entry's action data; nil
// on a default-action execution, where every argument reads zero, as do
// out-of-range ones.
func (o *operand) eval(st []Value, args []operand) Value {
	switch o.kind {
	case p4ir.OperandLit:
		return o.c
	case p4ir.OperandField:
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
			nd.cond = c.Decode()
			if nd.cond.Kind == p4ir.CondCompare {
				nd.slot = p.fields.slotOf(nd.cond.Field)
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
			mask := k.MatchMask(e.Match[i])
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
			ce.args = append(ce.args, p.operand(p4ir.DecodeOperand(a)))
		}
	}
	return ct
}

// compileAction lowers an action to its field writes the way the emulator
// executes its decoded primitives: everything after a drop is dead,
// malformed primitives are no-ops, and writes to unknown non-meta fields
// are swallowed.
func (p *plan) compileAction(a *p4ir.Action, next int32) *caction {
	ca := &caction{name: a.Name, next: next}
	for _, prim := range a.Primitives {
		in := prim.Decode()
		if in.Kind == p4ir.PrimDrop {
			ca.drops = true
			return ca
		}
		if in.Dst == "" {
			continue
		}
		pr := cprim{op: in.Kind, a: p.operand(in.Src[0]), b: p.operand(in.Src[1])}
		if pr.dst = p.fields.slotOf(in.Dst); p.fields.width[pr.dst] == unwritable {
			continue
		}
		// Header writes are checked for truncation; forward writes
		// metadata (full width, no truncation).
		pr.checked = !strings.HasPrefix(in.Dst, "meta.")
		ca.prims = append(ca.prims, pr)
		if !slices.Contains(ca.writes, pr.dst) {
			ca.writes = append(ca.writes, pr.dst)
		}
	}
	return ca
}

// operand resolves a decoded operand's field to its state slot.
func (p *plan) operand(o p4ir.Operand) operand {
	switch o.Kind {
	case p4ir.OperandArg:
		return operand{kind: o.Kind, idx: int32(o.Arg)}
	case p4ir.OperandField:
		return operand{kind: o.Kind, idx: p.fields.slotOf(o.Field)}
	}
	return operand{c: Const(o.Lit)}
}
