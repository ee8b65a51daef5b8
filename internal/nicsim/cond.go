package nicsim

import (
	"fmt"

	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
)

// condFunc evaluates a conditional branch against a packet.
type condFunc func(*packet.Packet) bool

// compileCond turns a decoded conditional into an executable predicate.
// An opaque expression, or a validity test of a header the packet model
// does not parse, fails at build time rather than silently defaulting.
func compileCond(c *p4ir.Conditional) (condFunc, error) {
	d := c.Decode()
	switch d.Kind {
	case p4ir.CondConst:
		return func(*packet.Packet) bool { return d.Value }, nil
	case p4ir.CondValid:
		switch d.Header {
		case "ipv4":
			return func(p *packet.Packet) bool { return p.HasIPv4 }, nil
		case "tcp":
			return func(p *packet.Packet) bool { return p.HasTCP }, nil
		case "udp":
			return func(p *packet.Packet) bool { return p.HasUDP }, nil
		}
	case p4ir.CondCompare:
		// The field resolves to a compiled ID and the operator to a
		// dedicated closure at build time, so evaluating the branch is
		// one integer-indexed read and one compare — no string switch
		// on the per-packet path. Unknown fields read as 0.
		fid, lit := packet.FieldIDFor(d.Field), d.Lit
		switch d.Op {
		case p4ir.CmpEq:
			return func(p *packet.Packet) bool { return p.GetID(fid) == lit }, nil
		case p4ir.CmpNe:
			return func(p *packet.Packet) bool { return p.GetID(fid) != lit }, nil
		case p4ir.CmpLt:
			return func(p *packet.Packet) bool { return p.GetID(fid) < lit }, nil
		case p4ir.CmpLe:
			return func(p *packet.Packet) bool { return p.GetID(fid) <= lit }, nil
		case p4ir.CmpGt:
			return func(p *packet.Packet) bool { return p.GetID(fid) > lit }, nil
		default:
			return func(p *packet.Packet) bool { return p.GetID(fid) >= lit }, nil
		}
	}
	return nil, fmt.Errorf("nicsim: cannot compile conditional %q (opaque, or an unknown header)", c.Expr)
}
