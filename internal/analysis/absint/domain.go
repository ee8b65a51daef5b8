// Package absint is a forward abstract interpreter over the p4ir control
// DAG. Its value domain tracks, per header/metadata field, an unsigned
// interval [Lo, Hi] refined with known-bit information (a bitmask of bits
// whose value is proven), which is exactly the shape P4 pipelines need:
// intervals capture conditional refinements (ipv4.ttl > 5) and arithmetic,
// known bits capture exact/LPM/ternary match constraints and constants.
//
// The interpreter mirrors the nicsim emulator's concrete semantics
// bit-for-bit where they are observable: header writes truncate to the
// registry width while metadata keeps full 64-bit values, unknown fields
// and out-of-range action arguments read zero, and table lookups mask keys
// to the declared key width. Soundness is pinned by property tests and the
// FuzzAbsintAgree fuzz target: the abstract result must always contain the
// concrete emulator result.
//
// On top of the per-node analysis (Analyze) the package provides
// path-class differential execution (Exec with forced branch decisions),
// which analysis.VerifySemantics uses to prove an optimized program
// equivalent to its original over the joined abstract packet space.
package absint

import "math/bits"

// Value is the abstract value of one field: every concrete value v it
// represents satisfies Lo <= v <= Hi and v&KnownMask == KnownVal.
// KnownVal never carries bits outside KnownMask.
type Value struct {
	Lo, Hi    uint64
	KnownMask uint64
	KnownVal  uint64
}

// Top is the unconstrained 64-bit value.
func Top() Value { return Value{Lo: 0, Hi: ^uint64(0)} }

// TopWidth is the unconstrained value of a w-bit field: the interval
// [0, 2^w-1] with the bits above w known zero.
func TopWidth(w int) Value {
	if w >= 64 {
		return Top()
	}
	mask := (uint64(1) << w) - 1
	return Value{Lo: 0, Hi: mask, KnownMask: ^mask, KnownVal: 0}
}

// Const is the singleton value.
func Const(v uint64) Value {
	return Value{Lo: v, Hi: v, KnownMask: ^uint64(0), KnownVal: v}
}

// IsConst reports whether the value is a singleton, returning it.
func (v Value) IsConst() (uint64, bool) {
	if v.Lo == v.Hi {
		return v.Lo, true
	}
	return 0, false
}

// Contains reports whether the concrete value c is represented.
func (v Value) Contains(c uint64) bool {
	return v.Lo <= c && c <= v.Hi && (c^v.KnownVal)&v.KnownMask == 0
}

// Eq reports bitwise equality of the abstract values.
func (v Value) Eq(o Value) bool { return v == o }

// Join returns the least upper bound: the interval hull plus the bits
// known and equal in both operands. Join is commutative and associative,
// so terminal-state joins are independent of path enumeration order.
func (v Value) Join(o Value) Value {
	out := Value{Lo: minU64(v.Lo, o.Lo), Hi: maxU64(v.Hi, o.Hi)}
	out.KnownMask = v.KnownMask & o.KnownMask &^ (v.KnownVal ^ o.KnownVal)
	out.KnownVal = v.KnownVal & out.KnownMask
	return out
}

// Meet intersects the two values. ok is false when the intersection is
// empty (the path constraint is infeasible).
func (v Value) Meet(o Value) (Value, bool) {
	if (v.KnownVal^o.KnownVal)&v.KnownMask&o.KnownMask != 0 {
		return Value{}, false
	}
	out := Value{
		Lo:        maxU64(v.Lo, o.Lo),
		Hi:        minU64(v.Hi, o.Hi),
		KnownMask: v.KnownMask | o.KnownMask,
		KnownVal:  v.KnownVal | o.KnownVal,
	}
	return out.normalize()
}

// normalize tightens the interval against the known bits and validates
// non-emptiness: the smallest representable value fills unknown bits with
// zeros, the largest with ones.
func (v Value) normalize() (Value, bool) {
	lo := maxU64(v.Lo, v.KnownVal)
	hi := minU64(v.Hi, v.KnownVal|^v.KnownMask)
	if lo > hi {
		return Value{}, false
	}
	v.Lo, v.Hi = lo, hi
	return v, true
}

// Truncate models a write to (or key gather from) a w-bit location:
// the concrete semantics keep value mod 2^w. When the interval provably
// stays on one 2^w page the offsets survive; otherwise only the known low
// bits do.
func (v Value) Truncate(w int) Value {
	if w >= 64 {
		return v
	}
	mask := (uint64(1) << w) - 1
	out := Value{
		KnownMask: (v.KnownMask & mask) | ^mask,
		KnownVal:  v.KnownVal & mask,
	}
	if v.Lo>>w == v.Hi>>w {
		out.Lo, out.Hi = v.Lo&mask, v.Hi&mask
	} else {
		out.Lo, out.Hi = 0, mask
	}
	if n, ok := out.normalize(); ok {
		return n
	}
	// Unreachable for inputs satisfying the Value invariant; stay sound.
	return TopWidth(w)
}

// Add is wrapping 64-bit addition. Exact for constants; interval-precise
// when the sum cannot wrap; Top otherwise.
func (v Value) Add(o Value) Value {
	if a, ok := v.IsConst(); ok {
		if b, ok := o.IsConst(); ok {
			return Const(a + b)
		}
	}
	if v.Hi <= ^uint64(0)-o.Hi { // no wrap possible
		return Value{Lo: v.Lo + o.Lo, Hi: v.Hi + o.Hi}
	}
	return Top()
}

// Sub is wrapping 64-bit subtraction. Exact for constants;
// interval-precise when no borrow is possible; Top otherwise.
func (v Value) Sub(o Value) Value {
	if a, ok := v.IsConst(); ok {
		if b, ok := o.IsConst(); ok {
			return Const(a - b)
		}
	}
	if v.Lo >= o.Hi { // no wrap possible
		return Value{Lo: v.Lo - o.Hi, Hi: v.Hi - o.Lo}
	}
	return Top()
}

// maskMonotone reports whether x&mask is monotone non-decreasing in x over
// [0, 2^w): true exactly when the mask's set bits are contiguous and reach
// bit w-1 (full-width masks and LPM prefix masks; most hand-written
// ternary masks too).
func maskMonotone(mask uint64, w int) bool {
	if mask == 0 {
		return false
	}
	low := mask & -mask
	if (mask+low)&mask != 0 { // set bits not contiguous
		return false
	}
	return bits.Len64(mask) == w
}

// MayMatch reports whether some represented value x can satisfy
// x&mask == val, for a key of width w (v must already be truncated to w).
// mask==0 is a full wildcard. The result over-approximates: false means
// provably no match.
func (v Value) MayMatch(mask, val uint64, w int) bool {
	return v.mayMatch(mask, val, maskMonotone(mask, w))
}

// mayMatch is MayMatch with maskMonotone(mask, w) precomputed.
func (v Value) mayMatch(mask, val uint64, monotone bool) bool {
	if mask == 0 {
		return true
	}
	if (v.KnownVal^val)&v.KnownMask&mask != 0 {
		return false
	}
	if monotone {
		if val < v.Lo&mask || val > v.Hi&mask {
			return false
		}
	}
	return true
}

// MustMatch reports whether every represented value x satisfies
// x&mask == val. The result under-approximates: true means provably
// always a match.
func (v Value) MustMatch(mask, val uint64, w int) bool {
	return v.mustMatch(mask, val, maskMonotone(mask, w))
}

// mustMatch is MustMatch with maskMonotone(mask, w) precomputed.
func (v Value) mustMatch(mask, val uint64, monotone bool) bool {
	if mask == 0 {
		return true
	}
	if v.KnownMask&mask == mask {
		return (v.KnownVal^val)&mask == 0
	}
	if monotone {
		// x&mask is monotone over the interval: equal endpoints pin it.
		return v.Lo&mask == val && v.Hi&mask == val
	}
	return false
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
