package p4ir

import (
	"math"
	"strconv"
	"strings"
)

// The IR's action and condition language is strings (Primitive.Op and
// Args, Conditional.Expr). This file is the one place they get a meaning:
// the emulator, the abstract interpreter, the dependency analysis and the
// lints all compile the decoded forms.

// PrimKind is what a primitive does.
type PrimKind uint8

const (
	PrimNop     PrimKind = iota // count, no_op, push/pop_header, unknown ops, too few args
	PrimDrop                    // drop, mark_to_drop: nothing after it in the action runs
	PrimSet                     // modify_field(dst, a): dst = a
	PrimAdd                     // add(dst, a, b): dst = a + b
	PrimSub                     // subtract(dst, a, b): dst = a - b
	PrimForward                 // forward(a): meta.egress_port = a
)

// arity is the number of source operands each kind reads.
var arity = [...]int{PrimSet: 1, PrimAdd: 2, PrimSub: 2, PrimForward: 1}

// OperandKind classifies a primitive operand or an entry's action datum.
type OperandKind uint8

const (
	OperandLit   OperandKind = iota // a literal
	OperandField                    // reads a header or metadata field
	OperandArg                      // reads the matched entry's action datum ("$i")
)

// Operand is one decoded operand.
type Operand struct {
	Kind  OperandKind
	Lit   uint64 // OperandLit
	Field string // OperandField
	Arg   int    // OperandArg
}

// DecodeOperand decodes an operand: "$i" is action datum i (the literal 0
// for a negative or unparseable i), a dotted name is a field, anything else
// a literal in Go syntax (42, 0x2a), 0 when it does not parse as a uint64.
func DecodeOperand(s string) Operand {
	if rest, ok := strings.CutPrefix(s, "$"); ok {
		if i, err := strconv.Atoi(rest); err == nil && i >= 0 && i <= math.MaxInt32 {
			return Operand{Kind: OperandArg, Arg: i}
		}
		return Operand{}
	}
	if strings.Contains(s, ".") {
		return Operand{Kind: OperandField, Field: s}
	}
	if v, err := strconv.ParseUint(s, 0, 64); err == nil {
		return Operand{Lit: v}
	}
	return Operand{}
}

// Instr is a decoded primitive.
type Instr struct {
	Kind PrimKind
	// Dst is the field written: meta.egress_port for forward, the first
	// argument of modify_field, add and subtract, "" otherwise.
	Dst string
	Src [2]Operand // read: one for set and forward, two for add and subtract; else literal 0
}

// Decode decodes the primitive (see PrimKind). A known op with too few
// arguments is a no-op; extra arguments are ignored.
func (p Primitive) Decode() Instr {
	var in Instr
	switch p.Op {
	case "drop", "mark_to_drop":
		return Instr{Kind: PrimDrop}
	case "modify_field":
		in.Kind = PrimSet
	case "add":
		in.Kind = PrimAdd
	case "subtract":
		in.Kind = PrimSub
	case "forward":
		in.Kind, in.Dst = PrimForward, "meta.egress_port"
	default:
		return Instr{}
	}
	src := p.Args
	if in.Dst == "" && len(src) > 0 {
		in.Dst, src = src[0], src[1:]
	}
	if in.Dst == "" || len(src) < arity[in.Kind] {
		return Instr{}
	}
	for i, s := range src[:arity[in.Kind]] {
		in.Src[i] = DecodeOperand(s)
	}
	return in
}

// CondKind classifies a conditional expression.
type CondKind uint8

const (
	CondOpaque  CondKind = iota // outside the grammar: nicsim refuses it, the analyses take both arms
	CondConst                   // "true", "false" or "" (true)
	CondCompare                 // <field> <op> <literal>
	CondValid                   // valid(<header>)
)

// CmpOp is a comparison operator, in the order Decode scans for them:
// two-character operators before the one-character ones they start with.
type CmpOp uint8

const (
	CmpEq CmpOp = iota // ==
	CmpNe              // !=
	CmpLe              // <=
	CmpGe              // >=
	CmpLt              // <
	CmpGt              // >
)

var cmpOps = [...]string{"==", "!=", "<=", ">=", "<", ">"}

// Cond is a decoded conditional expression.
type Cond struct {
	Kind   CondKind
	Value  bool   // CondConst
	Field  string // CondCompare
	Op     CmpOp  // CondCompare
	Lit    uint64 // CondCompare
	Header string // CondValid
}

// Decode decodes the conditional's expression (see CondKind). The first
// operator found, in CmpOp order, splits a comparison; a literal that does
// not parse as a uint64 makes the expression opaque.
func (c *Conditional) Decode() Cond {
	s := strings.TrimSpace(c.Expr)
	switch s {
	case "true", "":
		return Cond{Kind: CondConst, Value: true}
	case "false":
		return Cond{Kind: CondConst}
	}
	if hdr, ok := strings.CutPrefix(s, "valid("); ok && strings.HasSuffix(hdr, ")") {
		return Cond{Kind: CondValid, Header: hdr[:len(hdr)-1]}
	}
	for op, sym := range cmpOps {
		if i := strings.Index(s, sym); i > 0 {
			lit, err := strconv.ParseUint(strings.TrimSpace(s[i+len(sym):]), 0, 64)
			if err != nil {
				return Cond{}
			}
			return Cond{Kind: CondCompare, Field: strings.TrimSpace(s[:i]), Op: CmpOp(op), Lit: lit}
		}
	}
	return Cond{}
}

// MatchMask returns the mask an entry's match value mv is compared under
// for this key: the full width for exact, the prefix for LPM, the entry's
// own mask for ternary and range.
func (k Key) MatchMask(mv MatchValue) uint64 {
	switch k.Kind {
	case MatchExact:
		return k.FullMask()
	case MatchLPM:
		return k.PrefixMask(mv.PrefixLen)
	}
	return mv.Mask
}
