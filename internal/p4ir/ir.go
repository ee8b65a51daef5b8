// Package p4ir defines the graph-based intermediate representation of a P4
// program that Pipeleon operates on.
//
// Following the paper (§3.1, Figure 4), a program is a directed acyclic
// graph whose nodes are match-action tables or conditional branches and
// whose edges represent packet dataflow. A table node carries a key match
// (one or more keys, each with a match kind) and a set of actions, each
// composed of primitives. Switch-case tables transition to a different next
// node depending on which action was executed; plain tables have a single
// successor. Conditionals have true/false successors.
//
// The IR also carries table entries, because Pipeleon's transformations are
// entry-aware: table merging produces the cross-product of the original
// entries, caching copies match results, and the cost model derives the
// per-table memory-access count m from the distinct prefix lengths (LPM) or
// masks (ternary) present in the entries.
//
// Programs are serializable to a compact BMv2-.json-like format (json.go),
// which is the interchange format of the whole toolchain: the paper's
// prototype likewise consumes "the intermediate file generated by the P4
// compiler (e.g., a P4 .json representation)".
package p4ir

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"pipeleon/internal/diag"
)

// MatchKind classifies how a key field is matched against table entries.
type MatchKind int

const (
	// MatchExact is a single-hash exact match (m = 1 memory access).
	MatchExact MatchKind = iota
	// MatchLPM is longest-prefix match, implemented as one hash table per
	// distinct prefix length (m = number of distinct prefix lengths).
	MatchLPM
	// MatchTernary is mask-based match with priorities, implemented as one
	// hash table per distinct mask (m = number of distinct masks).
	MatchTernary
	// MatchRange matches a value interval; treated like ternary by the cost
	// model (multiple probes).
	MatchRange
)

var matchKindNames = [...]string{"exact", "lpm", "ternary", "range"}

// String returns the lowercase P4-style name of the match kind.
func (k MatchKind) String() string {
	if k < 0 || int(k) >= len(matchKindNames) {
		return fmt.Sprintf("MatchKind(%d)", int(k))
	}
	return matchKindNames[k]
}

// ParseMatchKind converts a P4-style match kind name to a MatchKind.
func ParseMatchKind(s string) (MatchKind, error) {
	for i, n := range matchKindNames {
		if n == s {
			return MatchKind(i), nil
		}
	}
	return 0, fmt.Errorf("p4ir: unknown match kind %q", s)
}

// Key is one component of a table's match key.
type Key struct {
	// Field is the fully qualified header field, e.g. "ipv4.dstAddr".
	Field string
	// Kind is how the field is matched.
	Kind MatchKind
	// Width is the field width in bits (0 defaults to 32). It determines
	// LPM prefix masks and ternary full masks.
	Width int
}

// BitWidth returns the key's field width, defaulting to 32 bits and
// clamping to the 64 bits a MatchValue can hold.
func (k Key) BitWidth() int {
	if k.Width <= 0 {
		return 32
	}
	if k.Width > 64 {
		return 64
	}
	return k.Width
}

// FullMask returns the all-ones mask for the key's width.
func (k Key) FullMask() uint64 {
	w := k.BitWidth()
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << w) - 1
}

// PrefixMask returns the mask selecting the top plen bits of the key's
// width (an LPM prefix as a ternary mask).
func (k Key) PrefixMask(plen int) uint64 {
	w := k.BitWidth()
	if plen <= 0 {
		return 0
	}
	if plen >= w {
		return k.FullMask()
	}
	return k.FullMask() &^ ((uint64(1) << (w - plen)) - 1)
}

// Primitive is a single action operation, e.g. modify_field(ipv4.ttl, -1).
// The cost model charges Lact per primitive (paper Equation 4b).
type Primitive struct {
	// Op is the primitive name; Decode gives it its meaning. modify_field,
	// add, subtract and forward write a field, drop and mark_to_drop drop the
	// packet; count, no_op, push_header and pop_header are no-ops everywhere.
	Op string
	// Args are the operands. For field-writing primitives the first arg is
	// the destination field.
	Args []string
}

// Action is a named list of primitives attached to a table.
type Action struct {
	Name       string
	Primitives []Primitive
}

// NumPrimitives returns n_a, the primitive count used by the cost model.
func (a *Action) NumPrimitives() int { return len(a.Primitives) }

// NumParams returns how many action data an entry running the action must
// carry: one more than the highest "$i" operand its primitives read, 0 when
// they read none.
func (a *Action) NumParams() int {
	n := 0
	for _, p := range a.Primitives {
		if !slices.ContainsFunc(p.Args, func(s string) bool { return strings.HasPrefix(s, "$") }) {
			continue // names no datum: nothing to decode
		}
		for _, o := range p.Decode().Src {
			if o.Kind == OperandArg {
				n = max(n, o.Arg+1)
			}
		}
	}
	return n
}

// Drops reports whether executing the action drops the packet.
func (a *Action) Drops() bool {
	for _, p := range a.Primitives {
		if p.Decode().Kind == PrimDrop {
			return true
		}
	}
	return false
}

// WriteSet returns the fields the action can write, in primitive order. A
// drop halts run-to-completion execution (§3.2.1): what follows it does
// not count.
func (a *Action) WriteSet() []string {
	var out []string
	for _, p := range a.Primitives {
		in := p.Decode()
		if in.Kind == PrimDrop {
			break
		}
		if in.Dst != "" {
			out = append(out, in.Dst)
		}
	}
	return out
}

// MatchValue is the matched value for one key of an entry.
type MatchValue struct {
	// Value holds the (masked) key bits. All supported fields fit in 64
	// bits, which keeps lookups allocation-free in the emulator.
	Value uint64
	// PrefixLen is the prefix length for LPM keys (0..64).
	PrefixLen int
	// Mask is the ternary mask; only bits set in Mask are compared.
	// A zero mask is a full wildcard.
	Mask uint64
}

// Entry is one table entry: per-key match values, an action, and its
// runtime arguments.
type Entry struct {
	// Priority orders ternary entries; higher wins.
	Priority int
	Match    []MatchValue
	Action   string
	// Args are action parameter values (stringly typed, as in BMv2 JSON).
	Args []string
}

// Table is a match-action table node. Its entries (the array, each
// entry's Match and Args) and actions are values its clones share: outside
// the entry operations, which copy the array on write, nothing writes them.
type Table struct {
	Name string
	Keys []Key
	// Actions is the table's action list. The first action's name is used
	// as a stable iteration order where needed.
	Actions []*Action
	// DefaultAction executes on a key miss. It must name one of Actions.
	DefaultAction string
	// BaseNext is the successor node for a plain table ("" = sink/egress).
	BaseNext string
	// ActionNext, when non-empty, makes this a switch-case table: the next
	// node depends on the executed action. Actions not present fall back
	// to BaseNext.
	ActionNext map[string]string
	// MaxEntries caps the entry count (0 = unlimited).
	MaxEntries int
	// Entries are the currently installed entries.
	Entries []Entry
	// Unsupported marks tables whose actions the ASIC cores cannot
	// execute; heterogeneous partitioning must place them on CPU cores
	// (§3.2.4).
	//
	// Deprecated: Unsupported is the legacy two-tier spelling of
	// MinTier >= 1 and is kept for JSON compatibility. New code should
	// set MinTier and read the floor via TierFloor, which folds both.
	Unsupported bool
	// MinTier is the lowest execution tier (costmodel.TierID) this
	// table may be placed on: 0 = anywhere, 1 = software tiers only
	// (the N-tier generalization of Unsupported), 2 = off-path only
	// (e.g. stages that must touch host memory).
	MinTier int
	// Sticky pins the table's state to a single tier: the placement
	// planner may move it, but must never copy it, because its actions
	// mutate per-flow state that cannot be kept coherent across two
	// concurrent instances (counters and caches are the classic
	// copy-safe counterexamples).
	Sticky bool
	// Annotations carries tool metadata (e.g. pipeleon.cache_of) without
	// affecting semantics.
	Annotations map[string]string

	own *ownership // of the Entries array; nil: unknown
}

// TierFloor returns the lowest tier the table may execute on, folding
// the deprecated Unsupported bool (= floor 1) into MinTier.
func (t *Table) TierFloor() int {
	floor := t.MinTier
	if t.Unsupported && floor < 1 {
		floor = 1
	}
	return floor
}

// IsSwitchCase reports whether the table's successor depends on the action.
func (t *Table) IsSwitchCase() bool { return len(t.ActionNext) > 0 }

// Action returns the named action, or nil.
func (t *Table) Action(name string) *Action {
	for _, a := range t.Actions {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// CheckEntry is the one rule for a well-formed entry of t, P4S06: as many
// match values as keys, an action of the table, at least the action data
// it reads (Action.NumParams), and each value, LPM prefix and ternary or
// range mask within its key's width. Validate applies it to every installed
// entry and the entry operations to every entry they install.
func (t *Table) CheckEntry(e Entry) error {
	if field, msg := t.entryFault(&e, nil); msg != "" {
		return fmt.Errorf("%w: %s", ErrBadEntry, diag.Diagnostic{Code: CodeBadEntry, Severity: diag.Error, Node: t.Name, Field: field, Message: "entry " + msg})
	}
	return nil
}

// entryFault is CheckEntry's finding: the key field it concerns, if any,
// and what is wrong ("" for none). params is NumParams of each of t's
// actions, or nil to read that of e's action alone.
func (t *Table) entryFault(e *Entry, params []int) (field, msg string) {
	ai := len(t.Actions) // e's action, as Table.Action finds it
	for i, a := range t.Actions {
		if a.Name == e.Action {
			ai = i
			break
		}
	}
	switch {
	case len(e.Match) != len(t.Keys):
		return "", fmt.Sprintf("has %d match values for %d keys", len(e.Match), len(t.Keys))
	case ai == len(t.Actions):
		return "", fmt.Sprintf("references unknown action %q", e.Action)
	case params == nil && len(e.Args) < t.Actions[ai].NumParams(), params != nil && len(e.Args) < params[ai]:
		return "", fmt.Sprintf("has %d action data, %q reads %d", len(e.Args), e.Action, t.Actions[ai].NumParams())
	}
	for i := range t.Keys {
		k, mv := &t.Keys[i], &e.Match[i]
		switch w := k.BitWidth(); { // x>>64 is 0: a 64-bit key holds every value
		case mv.Value>>w != 0:
			return k.Field, fmt.Sprintf("value %#x exceeds the %d-bit key width", mv.Value, w)
		case k.Kind == MatchLPM && (mv.PrefixLen < 0 || mv.PrefixLen > w):
			return k.Field, fmt.Sprintf("prefix length %d is outside the %d-bit key width", mv.PrefixLen, w)
		case (k.Kind == MatchTernary || k.Kind == MatchRange) && mv.Mask>>w != 0:
			return k.Field, fmt.Sprintf("mask %#x exceeds the %d-bit key width", mv.Mask, w)
		}
	}
	return "", ""
}

// The table halves of Program's entry operations: each validates, then
// changes the table, or refuses and leaves it untouched.

// insertEntry appends a copy of e, or refuses it: an entry CheckEntry
// refuses, or a table at MaxEntries.
func (t *Table) insertEntry(e Entry) (undo func(), err error) {
	if err := t.CheckEntry(e); err != nil {
		return nil, err
	} else if t.MaxEntries > 0 && len(t.Entries) >= t.MaxEntries {
		return nil, fmt.Errorf("table %q full (%d entries)", t.Name, t.MaxEntries)
	}
	t.Entries = append(t.Entries, e.Clone())
	return func() { t.Entries = slices.Delete(t.Entries, len(t.Entries)-1, len(t.Entries)) }, nil
}

// deleteEntry removes the first entry whose match values equal match.
func (t *Table) deleteEntry(match []MatchValue) (undo func(), err error) {
	i, err := t.entryIndex(match)
	if err != nil {
		return nil, err
	}
	was := t.Entries[i]
	t.Entries = slices.Delete(t.Entries, i, i+1)
	return func() { t.Entries = slices.Insert(t.Entries, i, was) }, nil
}

// modifyEntry gives the first entry whose match values equal match a new
// action and action data, or refuses the entry they would make.
func (t *Table) modifyEntry(match []MatchValue, action string, args []string) (undo func(), err error) {
	i, err := t.entryIndex(match)
	if err != nil {
		return nil, err
	}
	was := t.Entries[i]
	if err := t.CheckEntry(Entry{Match: was.Match, Action: action, Args: args}); err != nil {
		return nil, err
	}
	t.Entries[i].Action, t.Entries[i].Args = action, append([]string(nil), args...)
	return func() { t.Entries[i] = was }, nil
}

func (t *Table) entryIndex(match []MatchValue) (int, error) {
	i := slices.IndexFunc(t.Entries, func(e Entry) bool { return slices.Equal(e.Match, match) })
	if i < 0 {
		return i, fmt.Errorf("no entry matching %v in %q", match, t.Name)
	}
	return i, nil
}

// HasDropAction reports whether any action of the table drops packets.
// Such tables are candidates for promotion by table reordering.
func (t *Table) HasDropAction() bool {
	for _, a := range t.Actions {
		if a.Drops() {
			return true
		}
	}
	return false
}

// NextFor returns the successor node after executing action name.
func (t *Table) NextFor(action string) string {
	if nxt, ok := t.ActionNext[action]; ok {
		return nxt
	}
	return t.BaseNext
}

// MatchComplexity returns m, the number of memory accesses one key match of
// this table costs (paper Equation 4a). Exact matches cost one probe. LPM
// and ternary tables are implemented as multiple hash tables — one per
// distinct prefix length or mask among the installed entries — so m equals
// that count. When a table has no entries yet, the paper's benchmarking
// defaults apply: 3 prefixes for LPM, 5 masks for ternary.
func (t *Table) MatchComplexity() int {
	kind := t.WidestMatchKind()
	if kind == MatchExact {
		return 1
	}
	if n := t.distinct(kind == MatchLPM); n > 0 {
		return n
	}
	if kind == MatchLPM {
		return DefaultLPMPrefixes
	}
	return DefaultTernaryMasks
}

// Paper §3.1 methodology constants: "We use three different prefixes for
// LPM tables and five different masks for ternary tables in the
// measurement."
const (
	DefaultLPMPrefixes  = 3
	DefaultTernaryMasks = 5
)

// WidestMatchKind returns the most expensive match kind among the table's
// keys (ternary > lpm > exact), which determines the lookup structure.
func (t *Table) WidestMatchKind() MatchKind {
	widest := MatchExact
	for _, k := range t.Keys {
		switch k.Kind {
		case MatchTernary, MatchRange:
			return MatchTernary
		case MatchLPM:
			widest = MatchLPM
		}
	}
	return widest
}

// distinct counts the distinct prefix lengths (lpm) or masks (ternary and
// range keys) among the entries' match values.
func (t *Table) distinct(lpm bool) int {
	set := map[uint64]bool{}
	for _, e := range t.Entries {
		for i, k := range t.Keys[:min(len(t.Keys), len(e.Match))] {
			switch {
			case lpm && k.Kind == MatchLPM:
				set[uint64(e.Match[i].PrefixLen)] = true
			case !lpm && (k.Kind == MatchTernary || k.Kind == MatchRange):
				set[e.Match[i].Mask] = true
			}
		}
	}
	return len(set)
}

// MemoryBytes is the table's memory footprint. Pipeleon "approximates the
// memory consumption of a MA table using the total size of its table
// entries" (§4): key bytes plus a fixed action-data overhead per entry,
// multiplied by the entry-derived m for LPM/ternary tables (each distinct
// prefix length or mask is a hash table of its own). An empty table
// occupies one entry's worth, so pinning or copying it is never free.
func (t *Table) MemoryBytes() int {
	const perKeyBytes, overhead = 8, 16
	return max(len(t.Entries), 1) * (len(t.Keys)*perKeyBytes + overhead) * t.MatchComplexity()
}

// Conditional is an if/else branch node. Branches are cheap: the cost model
// charges a small fraction of an exact-match probe (configurable per
// target; the paper's emulated NIC uses 1/10 of an exact table).
type Conditional struct {
	Name string
	// Expr is the branch expression, e.g. "valid(ipv4)" or
	// "meta.direction == 1"; Decode gives it its meaning.
	Expr      string
	TrueNext  string
	FalseNext string
	// ReadFields lists the fields the expression reads, which is what the
	// dependency analysis sees of it. A comparison's field must be among
	// them (P4S09).
	ReadFields []string
}

// Program is a complete P4 program graph.
type Program struct {
	Name string
	// Root names the entry node ("" only for an empty program).
	Root   string
	Tables map[string]*Table
	Conds  map[string]*Conditional

	entryVersion versions // see EntryVersion
}

// versions is a program's entry version (read concurrently) and the last
// value handed out; the program's owner serializes entry operations.
type versions struct {
	cur  atomic.Uint64
	last uint64
}

// next moves the version to a value never handed out before.
func (v *versions) next() uint64 {
	v.last++
	v.cur.Store(v.last)
	return v.last
}

// NewProgram returns an empty program with the given name.
func NewProgram(name string) *Program {
	return &Program{
		Name:   name,
		Tables: map[string]*Table{},
		Conds:  map[string]*Conditional{},
	}
}

// The entry operations of the management API. Every holder of a published
// program — the emulator, the runtime's two views, the control-plane
// server's gate baseline, a replayed trace — changes its entries through
// these three only, so all agree on what an operation means and when it is
// refused, and the program counts every change (EntryVersion). A refused
// operation leaves the program untouched and returns no undo. An undo puts
// the table's entries back as they were; it is called at most once, before
// any later operation on the same table. When the version has not moved
// since its operation, the undo puts the version back too (the entries are
// the ones it named); otherwise it counts as a change itself. They and
// their undos are the only writers of an entry array, and make it their
// table's own first (ownEntries): a clone never sees its source's
// operations, nor the source a clone's.

// InsertEntry appends a copy of e to the named table, or refuses it: no
// such table, an entry Table.CheckEntry refuses, or a table at MaxEntries.
func (p *Program) InsertEntry(table string, e Entry) (undo func(), err error) {
	return p.entryOp(table, func(t *Table) (func(), error) { return t.insertEntry(e) })
}

// DeleteEntry removes the named table's first entry whose match values
// equal match.
func (p *Program) DeleteEntry(table string, match []MatchValue) (undo func(), err error) {
	return p.entryOp(table, func(t *Table) (func(), error) { return t.deleteEntry(match) })
}

// ModifyEntry gives the named table's first entry whose match values equal
// match a new action and action data, unless Table.CheckEntry refuses the
// entry that makes.
func (p *Program) ModifyEntry(table string, match []MatchValue, action string, args []string) (undo func(), err error) {
	return p.entryOp(table, func(t *Table) (func(), error) { return t.modifyEntry(match, action, args) })
}

func (p *Program) entryOp(table string, op func(*Table) (func(), error)) (func(), error) {
	t, ok := p.Tables[table]
	if !ok {
		return nil, fmt.Errorf("no table %q", table)
	}
	t.ownEntries()
	undo, err := op(t)
	if err != nil {
		return nil, err
	}
	prior, mine := p.entryVersion.cur.Load(), p.entryVersion.next()
	return func() {
		t.ownEntries()
		undo()
		if !p.entryVersion.cur.CompareAndSwap(mine, prior) {
			p.entryVersion.next()
		}
	}, nil
}

// EntryVersion names the program's entries: every entry operation, and
// every undo that does not restore the version before its operation, moves
// it to a value never used before. Whatever reads a program's entries and
// keeps what it derived — a proof, a verdict, a cost view — keys it by this
// version: entries never change without it moving, and one value never
// names two different sets of entries. A clone starts at zero.
func (p *Program) EntryVersion() uint64 { return p.entryVersion.cur.Load() }

// Node returns the named node as (table, conditional); exactly one is
// non-nil if found.
func (p *Program) Node(name string) (*Table, *Conditional) {
	if t, ok := p.Tables[name]; ok {
		return t, nil
	}
	if c, ok := p.Conds[name]; ok {
		return nil, c
	}
	return nil, nil
}

// Has reports whether a node with the given name exists.
func (p *Program) Has(name string) bool {
	t, c := p.Node(name)
	return t != nil || c != nil
}

// NodeNames returns every node name in ascending order (a name that is
// both a table and a conditional, which P4S05 rejects, appears twice).
// Index numbers nodes in this order.
func (p *Program) NodeNames() []string {
	out := make([]string, 0, len(p.Tables)+len(p.Conds))
	for n := range p.Tables {
		out = append(out, n)
	}
	for n := range p.Conds {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// NumNodes returns the total node count.
func (p *Program) NumNodes() int { return len(p.Tables) + len(p.Conds) }

// TopoOrder returns node names in a topological order of the DAG reachable
// from Root. It returns an error if the graph has a cycle or references a
// missing node: the first of the two Index's DFS meets.
func (p *Program) TopoOrder() ([]string, error) {
	ix := NewIndex(p)
	if ix.err != nil {
		return nil, ix.err
	}
	order := make([]string, len(ix.topo))
	for i, id := range ix.topo {
		order[i] = ix.names[id]
	}
	return order, nil
}

// TableCount returns the number of table nodes the root reaches, counted
// by the Index's DFS: on a program with a cycle or a missing reference too
// (a missing node is a sink), and never an unreachable table.
func (p *Program) TableCount() int {
	ix, n := NewIndex(p), 0
	for _, id := range ix.topo {
		if ix.nodes[id].t != nil {
			n++
		}
	}
	return n
}
