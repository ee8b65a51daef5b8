package p4ir

import (
	"fmt"
	"sort"
	"strings"
)

// Builder assembles programs fluently. It is the construction path used by
// tests, the synthesizer, and the example applications. Chain errors are
// accumulated and surfaced by Build, so call sites stay linear.
type Builder struct {
	prog *Program
	err  error
	// last tracks the most recently added node for Then chaining.
	last string
}

// NewBuilder starts a program named name.
func NewBuilder(name string) *Builder {
	return &Builder{prog: NewProgram(name)}
}

// TableSpec describes a table for Builder.Table.
type TableSpec struct {
	Name          string
	Keys          []Key
	Actions       []*Action
	DefaultAction string
	Next          string            // BaseNext
	ActionNext    map[string]string // switch-case successors
	MaxEntries    int
	Unsupported   bool // deprecated alias for MinTier >= 1
	MinTier       int  // lowest execution tier (0 = anywhere)
	Sticky        bool // state may move but never be copied
	Entries       []Entry
}

// Table adds a table node. The first node added becomes the root unless
// Root is called.
func (b *Builder) Table(spec TableSpec) *Builder {
	if b.err != nil {
		return b
	}
	if b.prog.Has(spec.Name) {
		b.err = fmt.Errorf("p4ir: duplicate node %q", spec.Name)
		return b
	}
	t := &Table{
		Name:          spec.Name,
		Keys:          spec.Keys,
		Actions:       spec.Actions,
		DefaultAction: spec.DefaultAction,
		BaseNext:      spec.Next,
		ActionNext:    spec.ActionNext,
		MaxEntries:    spec.MaxEntries,
		Unsupported:   spec.Unsupported,
		MinTier:       spec.MinTier,
		Sticky:        spec.Sticky,
		Entries:       spec.Entries,
	}
	if t.DefaultAction == "" && len(t.Actions) > 0 {
		t.DefaultAction = t.Actions[len(t.Actions)-1].Name
	}
	b.prog.Tables[spec.Name] = t
	if b.prog.Root == "" {
		b.prog.Root = spec.Name
	}
	b.last = spec.Name
	return b
}

// Cond adds a conditional node.
func (b *Builder) Cond(name, expr, trueNext, falseNext string, readFields ...string) *Builder {
	if b.err != nil {
		return b
	}
	if b.prog.Has(name) {
		b.err = fmt.Errorf("p4ir: duplicate node %q", name)
		return b
	}
	b.prog.Conds[name] = &Conditional{
		Name: name, Expr: expr,
		TrueNext: trueNext, FalseNext: falseNext,
		ReadFields: readFields,
	}
	if b.prog.Root == "" {
		b.prog.Root = name
	}
	b.last = name
	return b
}

// Root overrides the entry node.
func (b *Builder) Root(name string) *Builder {
	if b.err == nil {
		b.prog.Root = name
	}
	return b
}

// build validates and returns the program.
func (b *Builder) build() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	if err := b.prog.Validate(); err != nil {
		return nil, err
	}
	return b.prog, nil
}

// MustBuild is build that panics on error; for tests and fixtures.
func (b *Builder) MustBuild() *Program {
	p, err := b.build()
	if err != nil {
		panic(err)
	}
	return p
}

// NewAction is a convenience constructor for actions.
func NewAction(name string, prims ...Primitive) *Action {
	return &Action{Name: name, Primitives: prims}
}

// Prim is a convenience constructor for primitives.
func Prim(op string, args ...string) Primitive {
	return Primitive{Op: op, Args: args}
}

// DropAction returns the canonical packet-dropping action.
func DropAction() *Action {
	return NewAction("drop_packet", Prim("drop"))
}

// NoopAction returns an action with a single no_op primitive (n_a = 1).
func NoopAction(name string) *Action {
	return NewAction(name, Prim("no_op"))
}

// ChainTables links the given table specs linearly (each table's Next set
// to the following one) and returns a built program rooted at the first.
// This is the shape of the paper's microbenchmarks: "constructed using
// pipelets with four tables, replicated with a scale factor N".
func ChainTables(name string, specs []TableSpec) (*Program, error) {
	b := NewBuilder(name)
	for i := range specs {
		if specs[i].Next == "" && i+1 < len(specs) {
			specs[i].Next = specs[i+1].Name
		}
		b.Table(specs[i])
	}
	if len(specs) > 0 {
		b.Root(specs[0].Name)
	}
	return b.build()
}

// Graphviz renders the program as a DOT digraph for debugging and docs.
func (p *Program) Graphviz() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n  rankdir=LR;\n", p.Name)
	names := p.NodeNames()
	for _, n := range names {
		if t, c := p.Node(n); t != nil {
			shape := "box"
			if t.IsSwitchCase() {
				shape = "box3d"
			}
			fmt.Fprintf(&sb, "  %q [shape=%s label=\"%s\\n%s\"];\n",
				n, shape, n, t.WidestMatchKind())
		} else if c != nil {
			fmt.Fprintf(&sb, "  %q [shape=diamond label=\"%s\"];\n", n, c.Expr)
		}
	}
	for _, n := range names {
		if t, c := p.Node(n); t != nil {
			if t.IsSwitchCase() {
				acts := make([]string, 0, len(t.ActionNext))
				for a := range t.ActionNext {
					acts = append(acts, a)
				}
				sort.Strings(acts)
				for _, a := range acts {
					if nxt := t.ActionNext[a]; nxt != "" {
						fmt.Fprintf(&sb, "  %q -> %q [label=%q];\n", n, nxt, a)
					}
				}
			}
			if t.BaseNext != "" {
				fmt.Fprintf(&sb, "  %q -> %q;\n", n, t.BaseNext)
			}
		} else if c != nil {
			if c.TrueNext != "" {
				fmt.Fprintf(&sb, "  %q -> %q [label=\"true\"];\n", n, c.TrueNext)
			}
			if c.FalseNext != "" {
				fmt.Fprintf(&sb, "  %q -> %q [label=\"false\"];\n", n, c.FalseNext)
			}
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}
