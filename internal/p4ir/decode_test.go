package p4ir

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

func TestDecodePrimitive(t *testing.T) {
	lit := func(v uint64) Operand { return Operand{Kind: OperandLit, Lit: v} }
	field := func(f string) Operand { return Operand{Kind: OperandField, Field: f} }
	for _, c := range []struct {
		prim Primitive
		want Instr
	}{
		{Prim("modify_field", "meta.a", "$1"), Instr{Kind: PrimSet, Dst: "meta.a", Src: [2]Operand{{Kind: OperandArg, Arg: 1}}}},
		{Prim("modify_field", "meta.a", "ipv4.ttl", "9"), Instr{Kind: PrimSet, Dst: "meta.a", Src: [2]Operand{field("ipv4.ttl")}}},
		{Prim("add", "meta.a", "meta.a", "0x10"), Instr{Kind: PrimAdd, Dst: "meta.a", Src: [2]Operand{field("meta.a"), lit(16)}}},
		{Prim("subtract", "ipv4.ttl", "ipv4.ttl", "1"), Instr{Kind: PrimSub, Dst: "ipv4.ttl", Src: [2]Operand{field("ipv4.ttl"), lit(1)}}},
		{Prim("forward", "3"), Instr{Kind: PrimForward, Dst: "meta.egress_port", Src: [2]Operand{lit(3)}}},
		{Prim("forward", "meta.x"), Instr{Kind: PrimForward, Dst: "meta.egress_port", Src: [2]Operand{field("meta.x")}}},
		{Prim("drop"), Instr{Kind: PrimDrop}},
		{Prim("mark_to_drop"), Instr{Kind: PrimDrop}},
		// Too few arguments, and the ops that do nothing.
		{Prim("modify_field", "meta.a"), Instr{}},
		{Prim("add", "meta.a", "1"), Instr{}},
		{Prim("forward"), Instr{}},
		{Prim("count", "c"), Instr{}},
		{Prim("no_op"), Instr{}},
		{Prim("push_header", "vlan"), Instr{}},
		{Prim("pop_header", "vlan"), Instr{}},
		{Prim("resubmit"), Instr{}},
	} {
		if got := c.prim.Decode(); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%v: Decode() = %+v, want %+v", c.prim, got, c.want)
		}
	}
}

func TestDecodeOperand(t *testing.T) {
	for in, want := range map[string]Operand{
		"$0":                  {Kind: OperandArg},
		"$12":                 {Kind: OperandArg, Arg: 12},
		"$-1":                 {Kind: OperandLit},
		"$x":                  {Kind: OperandLit},
		"$99999999999":        {Kind: OperandLit},
		"ipv4.ttl":            {Kind: OperandField, Field: "ipv4.ttl"},
		"42":                  {Kind: OperandLit, Lit: 42},
		"0x2a":                {Kind: OperandLit, Lit: 42},
		"nonsense":            {Kind: OperandLit},
		"0x1ffffffffffffffff": {Kind: OperandLit}, // overflows: reads 0
	} {
		if got := DecodeOperand(in); got != want {
			t.Errorf("DecodeOperand(%q) = %+v, want %+v", in, got, want)
		}
	}
}

func TestDecodeCond(t *testing.T) {
	for expr, want := range map[string]Cond{
		"":                   {Kind: CondConst, Value: true},
		" true ":             {Kind: CondConst, Value: true},
		"false":              {Kind: CondConst},
		"valid(ipv4)":        {Kind: CondValid, Header: "ipv4"},
		"valid(vlan)":        {Kind: CondValid, Header: "vlan"},
		"meta.dir == 1":      {Kind: CondCompare, Field: "meta.dir", Op: CmpEq, Lit: 1},
		"tcp.dport != 0x50":  {Kind: CondCompare, Field: "tcp.dport", Op: CmpNe, Lit: 80},
		"ipv4.ttl<=10":       {Kind: CondCompare, Field: "ipv4.ttl", Op: CmpLe, Lit: 10},
		"ipv4.ttl >= 10":     {Kind: CondCompare, Field: "ipv4.ttl", Op: CmpGe, Lit: 10},
		"ipv4.tos < 128":     {Kind: CondCompare, Field: "ipv4.tos", Op: CmpLt, Lit: 128},
		"ipv4.ttl > 0":       {Kind: CondCompare, Field: "ipv4.ttl", Op: CmpGt, Lit: 0},
		"valid(ipv4) == 1":   {Kind: CondCompare, Field: "valid(ipv4)", Op: CmpEq, Lit: 1},
		"ipv4.ttl > meta.x":  {},
		"ipv4.isValid()":     {},
		"== 1":               {},
		"something weird":    {},
		"meta.a == 1 == 1":   {},
		"meta.a < 0x1ffffff": {Kind: CondCompare, Field: "meta.a", Op: CmpLt, Lit: 0x1ffffff},
	} {
		c := &Conditional{Expr: expr}
		if got := c.Decode(); got != want {
			t.Errorf("Decode(%q) = %+v, want %+v", expr, got, want)
		}
	}
}

func TestMatchMask(t *testing.T) {
	mv := MatchValue{Value: 0x0a000000, PrefixLen: 8, Mask: 0xff00}
	for kind, want := range map[MatchKind]uint64{
		MatchExact: 0xffff, MatchLPM: 0xff00, MatchTernary: 0xff00, MatchRange: 0xff00,
	} {
		if got := (Key{Kind: kind, Width: 16}).MatchMask(mv); got != want {
			t.Errorf("%v: MatchMask = %#x, want %#x", kind, got, want)
		}
	}
}

// A loaded program whose comparison reads a field its read_fields omit is
// refused: the dependency analysis sees only read_fields.
func TestLoadRejectsUndeclaredComparison(t *testing.T) {
	const src = `{"name": "p", "init_table": "c",
		"tables": [{"name": "t", "key": [], "actions": [{"name": "n", "primitives": [{"op": "no_op"}]}]}],
		"conditionals": [{"name": "c", "expression": "meta.dir == 1", "true_next": "t", "read_fields": %s}]}`
	if _, err := Load(strings.NewReader(strings.Replace(src, "%s", `["meta.dir"]`, 1))); err != nil {
		t.Fatalf("declared read refused: %v", err)
	}
	_, err := Load(strings.NewReader(strings.Replace(src, "%s", `["meta.other"]`, 1)))
	var ve *ValidationError
	if !errors.As(err, &ve) || len(ve.Diags) != 1 || ve.Diags[0].Code != CodeUndeclaredRead || ve.Diags[0].Field != "meta.dir" {
		t.Fatalf("undeclared read: err = %v, want one %s on meta.dir", err, CodeUndeclaredRead)
	}
}
