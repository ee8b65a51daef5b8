package absint

import (
	"encoding/binary"
	"slices"
	"strings"
	"sync"

	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
)

// plan is a program compiled for the interpreter: everything a run needs
// that does not depend on the incoming state or the forced branches. The
// table bodies in it may be shared with other plans (Cache); what is the
// program's own is the node order and every successor.
type plan struct {
	err    error       // the program is unanalyzable; every run reports it
	fields *fieldTable // slot assignment of every mentioned field
	nodes  []cnode     // topological order; successors are indices into it
	ix     *p4ir.Index // a node's place in nodes is its Pos
	root   int32
	egress int32 // len(nodes): the successor index of "", and the scratch row of the egress join

	maxKeys, maxEntries int
}

func (p *plan) nslots() int { return len(p.fields.names) }

// toNowhere is the successor code (Pos) of a node outside the topological
// order: such a node is never executed, so flows to it are discarded.
// Egress is the index one past the last node (plan.egress).
const toNowhere int32 = -1

// unwritable is the fieldTable width of unknown non-meta fields: they read
// zero and swallow writes.
const unwritable = -1

// fieldTable assigns a state slot to every field a program mentions, in
// first-mention order. A table that extends a base (a Cache's, frozen)
// keeps the base's slots and appends the fields only its program mentions,
// so a body compiled against the base reads and writes the same slots in
// either.
type fieldTable struct {
	base     *fieldTable // nil, or the frozen table whose slots come first
	names    []string
	slot     map[string]int32 // the fields this table added to base
	defaults []Value
	// width is what a write truncates to: the registry width of a header
	// field, 64 (no truncation) for metadata, unwritable otherwise.
	width []int
}

// extend returns a table that starts with f's slots. f is never written
// through it: the clipped slices copy on the first field appended.
func (f *fieldTable) extend() *fieldTable {
	return &fieldTable{
		base:     f,
		names:    slices.Clip(f.names),
		slot:     map[string]int32{},
		defaults: slices.Clip(f.defaults),
		width:    slices.Clip(f.width),
	}
}

func (f *fieldTable) lookup(name string) (int32, bool) {
	if f.base != nil {
		if i, ok := f.base.slot[name]; ok {
			return i, true
		}
	}
	i, ok := f.slot[name]
	return i, ok
}

func (f *fieldTable) slotOf(name string) int32 {
	if i, ok := f.lookup(name); ok {
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
	// A table's successors: acts[i] follows tab.acts[i], base follows an
	// actionless table.
	acts []int32
	base int32
}

// ctable is a table's compiled body: everything its lookup and actions
// need and nothing about where it sits, so one body serves every program
// holding a table with the same keys, actions, default action and entries.
type ctable struct {
	keys []ckey
	// match holds one row of len(keys) per entry.
	match   []cmatch
	entries []centry
	acts    []*caction // the table's actions, in order
	mustHit bool       // a miss is statically impossible
	def     int32      // index in acts of the miss action; -1 for an actionless table
	writes  []int32    // slots any action of the table writes
	shadows []Shadow   // AnalyzeTable's: the entries the lookup never selects
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
	// live is false for the statically dead entries: dedup losers,
	// dominated and group-covered entries, which the emulator's lookup can
	// never pick — applying them would leak their writes into the egress
	// join and flag legal Figure-6 merges as inequivalent. The program is
	// well formed: no entry is malformed.
	live bool
	act  int32     // index in the table's acts
	args []operand // the entry's action data
	// same is the first live entry with this entry's action and action
	// data: applying either has the same effect, so a run that need not
	// attribute writes applies only the first one that may match.
	same int32
}

type caction struct {
	name   string
	prims  []cprim // up to the first drop
	drops  bool
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

// compile compiles prog. With a cache, fields extend the cache's and a
// table whose body digest the cache holds takes that body; with store set
// (the cache's own program), every body compiled is added to it.
func compile(prog *p4ir.Program, cache *Cache, store bool) *plan {
	p := &plan{ix: p4ir.NewIndex(prog)}
	if p.err = p.ix.Err(); p.err != nil {
		return p
	}
	order := p.ix.Topo()
	if cache != nil && !store {
		p.fields = cache.fields.extend()
	} else {
		p.fields = &fieldTable{slot: map[string]int32{}}
	}
	p.egress = int32(len(order))
	p.root = p.resolve(prog.Root)
	p.nodes = make([]cnode, len(order))
	var h *p4ir.BodyHasher
	if cache != nil {
		h = new(p4ir.BodyHasher)
	}
	for i, id := range order {
		nd := &p.nodes[i]
		nd.name = p.ix.Name(id)
		if c := p.ix.Cond(id); c != nil {
			nd.kind = nodeCond
			nd.cond = c.Decode()
			if nd.cond.Kind == p4ir.CondCompare {
				nd.slot = p.fields.slotOf(nd.cond.Field)
			}
			nd.next = [2]int32{p.resolve(c.TrueNext), p.resolve(c.FalseNext)}
			continue
		}
		t := p.ix.Table(id)
		if spec, isCache := t.CacheMeta(); isCache && !spec.Prepopulated {
			nd.kind = nodePass
			nd.next[0] = p.resolve(spec.MissNext)
			continue
		}
		switch {
		case cache == nil:
			nd.tab = p.compileTable(t)
		case store:
			nd.tab = p.compileTable(t)
			cache.bodies[h.Digest(t)] = nd.tab
		default:
			if nd.tab = cache.bodies[h.Digest(t)]; nd.tab == nil {
				nd.tab = p.compileTable(t)
			}
		}
		nd.acts = make([]int32, len(t.Actions))
		for ai, a := range t.Actions {
			nd.acts[ai] = p.resolve(t.NextFor(a.Name))
		}
		nd.base = p.resolve(t.BaseNext)
		p.maxKeys = max(p.maxKeys, len(t.Keys))
		p.maxEntries = max(p.maxEntries, len(t.Entries))
	}
	if store {
		cache.fields = p.fields
	}
	return p
}

// Cache holds what compiling one program's tables derives — each table's
// AnalyzeTable facts and compiled body — so that analyzing a rewrite of
// that program compiles only the tables the rewrite generated or changed.
// A body is keyed by its table's body digest (p4ir.BodyHasher): a table takes a
// cached body exactly when its keys, actions, default action and entries
// equal, at that moment, those the body was compiled from, whatever its
// name and successors. Fields the original mentions keep the original's
// slots in every program compiled against the cache; a program's own new
// fields come after them. Read-only once built, so safe for concurrent
// use.
type Cache struct {
	fields *fieldTable // the original's; nil when it is unanalyzable
	bodies map[p4ir.Digest]*ctable
	orig   *Analyzer
	pool   scratches // shared by every analyzer the cache compiles
}

// NewCache compiles orig, a well-formed program, and keeps its table
// bodies.
func NewCache(orig *p4ir.Program) *Cache {
	c := &Cache{bodies: map[p4ir.Digest]*ctable{}, pool: scratches{shared: &sync.Pool{}}}
	c.orig = &Analyzer{plan: compile(orig, c, true), pool: &c.pool}
	return c
}

// Original returns the analyzer of the program the cache was built from.
func (c *Cache) Original() *Analyzer { return c.orig }

// Analyzer compiles prog against the cache (NewAnalyzer when c is nil or
// its original was unanalyzable).
func (c *Cache) Analyzer(prog *p4ir.Program) *Analyzer {
	if c == nil || c.fields == nil {
		return NewAnalyzer(prog)
	}
	return &Analyzer{plan: compile(prog, c, false), pool: &c.pool}
}

// resolve returns a successor's place in nodes: egress for the sink,
// toNowhere for a name no reachable node has.
func (p *plan) resolve(next string) int32 {
	if next == "" {
		return p.egress
	}
	if id := p.ix.ID(next); id >= 0 {
		return p.ix.Pos(id)
	}
	return toNowhere
}

func (p *plan) compileTable(t *p4ir.Table) *ctable {
	ct := &ctable{def: -1}
	for _, k := range t.Keys {
		ct.keys = append(ct.keys, ckey{slot: p.fields.slotOf(k.Field), width: k.BitWidth()})
	}

	ct.acts = make([]*caction, len(t.Actions))
	byName := make(map[string]int32, len(t.Actions))
	written := map[int32]bool{}
	for i, a := range t.Actions {
		ct.acts[i] = p.compileAction(a)
		byName[a.Name] = int32(i)
		for _, s := range ct.acts[i].writes {
			if !written[s] {
				written[s] = true
				ct.writes = append(ct.writes, s)
			}
		}
	}
	// The emulator falls back to the last action when no default is named
	// (-1 for an actionless table).
	ct.def = int32(len(ct.acts) - 1)
	if t.DefaultAction != "" {
		ct.def = byName[t.DefaultAction]
	}

	facts := AnalyzeTable(t)
	ct.mustHit, ct.shadows = facts.MustHit, facts.Shadows
	dead := make([]bool, len(t.Entries))
	for _, s := range facts.Shadows {
		dead[s.Entry] = true
	}
	nk := len(t.Keys)
	ct.match = make([]cmatch, len(t.Entries)*nk)
	ct.entries = make([]centry, len(t.Entries))
	effects := map[string]int32{} // action and action data, length-prefixed -> first entry
	var effect []byte
	for ei := range t.Entries {
		e := &t.Entries[ei]
		ce := &ct.entries[ei]
		if dead[ei] {
			continue
		}
		ce.live = true
		for i, k := range t.Keys {
			mask := k.MatchMask(e.Match[i])
			ct.match[ei*nk+i] = cmatch{
				mask:     mask,
				val:      e.Match[i].Value & mask,
				monotone: maskMonotone(mask, k.BitWidth()),
			}
		}
		ce.act = byName[e.Action]
		effect = binary.AppendUvarint(effect[:0], uint64(ce.act))
		for _, a := range e.Args {
			ce.args = append(ce.args, p.operand(p4ir.DecodeOperand(a)))
			effect = append(binary.AppendUvarint(effect, uint64(len(a))), a...)
		}
		var seen bool
		if ce.same, seen = effects[string(effect)]; !seen {
			ce.same = int32(ei)
			effects[string(effect)] = ce.same
		}
	}
	return ct
}

// compileAction lowers an action to its field writes the way the emulator
// executes its decoded primitives: everything after a drop is dead,
// malformed primitives are no-ops, and writes to unknown non-meta fields
// are swallowed.
func (p *plan) compileAction(a *p4ir.Action) *caction {
	ca := &caction{name: a.Name}
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
