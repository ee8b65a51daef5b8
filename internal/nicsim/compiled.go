package nicsim

import (
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
)

// Compiled action primitives: each primitive is decoded (p4ir's
// Primitive.Decode) and its fields resolved to packet.FieldIDs once, at
// table-build time, so executing an action on the per-packet path is a
// switch over pre-resolved operands with no string parsing and no
// allocation.

type operand struct {
	kind p4ir.OperandKind
	lit  uint64
	fid  packet.FieldID
	arg  int
}

// compileOperand resolves a decoded operand's field to its ID.
func compileOperand(o p4ir.Operand) operand {
	c := operand{kind: o.Kind, lit: o.Lit, arg: o.Arg}
	if o.Kind == p4ir.OperandField {
		c.fid = packet.FieldIDFor(o.Field)
	}
	return c
}

// value evaluates the operand against the packet and the matched entry's
// pre-compiled action data. An out-of-range $i — or a $i whose entry arg
// is itself a $ reference — yields 0, as resolveArg did; so does an
// unknown field reference (FieldInvalid reads as 0).
func (o operand) value(pkt *packet.Packet, cargs []operand) uint64 {
	switch o.kind {
	case p4ir.OperandLit:
		return o.lit
	case p4ir.OperandField:
		return pkt.GetID(o.fid)
	default:
		if o.arg >= len(cargs) {
			return 0
		}
		a := cargs[o.arg]
		if a.kind == p4ir.OperandArg {
			return 0
		}
		return a.value(pkt, nil)
	}
}

type compiledPrim struct {
	kind  p4ir.PrimKind
	dstID packet.FieldID // FieldInvalid for an unknown destination: the write is dropped
	a, b  operand
}

// compiledAction is the executable form of a p4ir.Action.
type compiledAction struct {
	act *p4ir.Action
	// idx is the action's position in its table's Actions slice — the
	// integer the execution plan uses for next-node and counter-slot
	// dispatch.
	idx int
	// prims is 1:1 with act.Primitives (latency is charged per primitive,
	// including no-ops).
	prims []compiledPrim
	// isCacheMiss marks the miss action of a pre-populated merged cache.
	isCacheMiss bool
}

func compileAction(act *p4ir.Action, idx int) *compiledAction {
	ca := &compiledAction{act: act, idx: idx, isCacheMiss: act.Name == "cache_miss"}
	ca.prims = make([]compiledPrim, len(act.Primitives))
	for i, prim := range act.Primitives {
		in := prim.Decode()
		ca.prims[i] = compiledPrim{kind: in.Kind, dstID: packet.FieldIDFor(in.Dst),
			a: compileOperand(in.Src[0]), b: compileOperand(in.Src[1])}
	}
	return ca
}

// apply executes the action against the packet. Successful field writes
// are appended to *writes when writes is non-nil (cache fills in
// progress); the bool result reports whether the packet dropped.
func (ca *compiledAction) apply(pkt *packet.Packet, cargs []operand, writes *[]fieldWrite) bool {
	for i := range ca.prims {
		pr := &ca.prims[i]
		switch {
		case pr.kind == p4ir.PrimDrop:
			return true
		case pr.kind == p4ir.PrimNop, pr.dstID == packet.FieldInvalid:
			continue
		}
		v := pr.a.value(pkt, cargs)
		switch pr.kind {
		case p4ir.PrimAdd:
			v += pr.b.value(pkt, cargs)
		case p4ir.PrimSub:
			v -= pr.b.value(pkt, cargs)
		}
		pkt.SetID(pr.dstID, v)
		if writes != nil {
			*writes = append(*writes, fieldWrite{id: pr.dstID, value: v})
		}
	}
	return false
}
