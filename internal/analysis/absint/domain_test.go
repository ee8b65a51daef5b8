package absint

import (
	"math/rand"
	"testing"
)

// randValue builds a random well-formed Value by joining a handful of
// random constants — every constructed value is the join of its samples,
// so the samples are guaranteed representatives.
func randValue(rng *rand.Rand) (Value, []uint64) {
	n := 1 + rng.Intn(4)
	samples := make([]uint64, n)
	var v Value
	for i := range samples {
		var c uint64
		switch rng.Intn(4) {
		case 0:
			c = rng.Uint64()
		case 1:
			c = uint64(rng.Intn(256))
		case 2:
			c = rng.Uint64() >> uint(rng.Intn(60))
		default:
			c = ^uint64(0) - uint64(rng.Intn(256))
		}
		samples[i] = c
		if i == 0 {
			v = Const(c)
		} else {
			v = v.Join(Const(c))
		}
	}
	return v, samples
}

func TestDomainInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20000; trial++ {
		a, as := randValue(rng)
		b, bs := randValue(rng)

		for _, c := range as {
			if !a.Contains(c) {
				t.Fatalf("join of samples lost %#x: %+v", c, a)
			}
		}
		if a.KnownVal&^a.KnownMask != 0 {
			t.Fatalf("KnownVal outside KnownMask: %+v", a)
		}

		// Join soundness + commutativity.
		j := a.Join(b)
		if j != b.Join(a) {
			t.Fatalf("join not commutative: %+v %+v", a, b)
		}
		for _, c := range append(append([]uint64{}, as...), bs...) {
			if !j.Contains(c) {
				t.Fatalf("join lost %#x: %+v", c, j)
			}
		}

		// Join associativity (needed for order-independent egress joins).
		cv, _ := randValue(rng)
		if a.Join(b).Join(cv) != a.Join(b.Join(cv)) {
			t.Fatalf("join not associative: %+v %+v %+v", a, b, cv)
		}

		// Meet soundness: values in both operands survive.
		m, ok := a.Meet(b)
		for _, c := range as {
			if b.Contains(c) {
				if !ok {
					t.Fatalf("meet claimed empty but %#x in both: %+v %+v", c, a, b)
				}
				if !m.Contains(c) {
					t.Fatalf("meet lost %#x: %+v", c, m)
				}
			}
		}

		// Truncate soundness: c mod 2^w stays represented.
		w := 1 + rng.Intn(64)
		tr := a.Truncate(w)
		var mask uint64 = ^uint64(0)
		if w < 64 {
			mask = (uint64(1) << w) - 1
		}
		for _, c := range as {
			if !tr.Contains(c & mask) {
				t.Fatalf("truncate(%d) lost %#x->%#x: in=%+v out=%+v", w, c, c&mask, a, tr)
			}
		}

		// Add/Sub soundness under wrapping arithmetic.
		sum, dif := a.Add(b), a.Sub(b)
		for _, ca := range as {
			for _, cb := range bs {
				if !sum.Contains(ca + cb) {
					t.Fatalf("add lost %#x+%#x: %+v", ca, cb, sum)
				}
				if !dif.Contains(ca - cb) {
					t.Fatalf("sub lost %#x-%#x: %+v", ca, cb, dif)
				}
			}
		}
	}
}

func TestMatchPredicates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20000; trial++ {
		w := 1 + rng.Intn(33)
		var wmask uint64 = ^uint64(0)
		if w < 64 {
			wmask = (uint64(1) << w) - 1
		}
		// Random key-width value with known samples.
		n := 1 + rng.Intn(3)
		samples := make([]uint64, n)
		var v Value
		for i := range samples {
			samples[i] = rng.Uint64() & wmask
			if rng.Intn(2) == 0 {
				samples[i] &= 0xff // cluster to make Must cases reachable
			}
			if i == 0 {
				v = Const(samples[i])
			} else {
				v = v.Join(Const(samples[i]))
			}
		}
		// Random mask of each style the emulator produces.
		var mask uint64
		switch rng.Intn(3) {
		case 0: // exact
			mask = wmask
		case 1: // LPM prefix
			plen := rng.Intn(w + 1)
			mask = (wmask >> uint(w-plen)) << uint(w-plen)
		default: // arbitrary ternary
			mask = rng.Uint64() & wmask
		}
		val := rng.Uint64() & mask
		if rng.Intn(2) == 0 && mask != 0 {
			val = samples[0] & mask // force a hit half the time
		}

		anyMatch, allMatch := false, mask == 0
		if mask != 0 {
			allMatch = true
			for _, c := range samples {
				if c&mask == val {
					anyMatch = true
				} else {
					allMatch = false
				}
			}
		} else {
			anyMatch = true
		}

		if anyMatch && !v.MayMatch(mask, val, w) {
			t.Fatalf("MayMatch unsound: v=%+v mask=%#x val=%#x w=%d samples=%#x", v, mask, val, w, samples)
		}
		if v.MustMatch(mask, val, w) && !allMatch {
			t.Fatalf("MustMatch unsound: v=%+v mask=%#x val=%#x w=%d samples=%#x", v, mask, val, w, samples)
		}
	}
}

func TestDomainPrecision(t *testing.T) {
	// Spot-check the precision the lints rely on.
	if _, ok := Const(5).Meet(Const(6)); ok {
		t.Error("meet of distinct constants should be empty")
	}
	v := TopWidth(8)
	if v.Lo != 0 || v.Hi != 255 {
		t.Errorf("TopWidth(8) = %+v", v)
	}
	if !v.MustMatch(0xff00, 0, 16) {
		t.Error("8-bit value must match a zero high byte")
	}
	if v.MayMatch(0xff00, 0x100, 16) {
		t.Error("8-bit value cannot have bit 8 set")
	}
	// LPM prefix feasibility through the interval.
	r, ok := TopWidth(32).Meet(Value{Lo: 0x0a000000, Hi: 0x0affffff})
	if !ok {
		t.Fatal("meet unexpectedly empty")
	}
	if r.MayMatch(0xff000000, 0x0b000000, 32) {
		t.Error("10.0.0.0/8-constrained value cannot match 11.0.0.0/8")
	}
	if !r.MustMatch(0xff000000, 0x0a000000, 32) {
		t.Error("10.0.0.0/8-constrained value must match 10.0.0.0/8")
	}
	// Constant folding through arithmetic and truncation.
	ttl := Const(0x1ff).Truncate(8)
	if c, ok := ttl.isConst(); !ok || c != 0xff {
		t.Errorf("Truncate(8) of 0x1ff = %+v", ttl)
	}
	if c, ok := Const(7).Sub(Const(9)).isConst(); !ok || c != ^uint64(1) {
		t.Errorf("7-9 wrapped = %#x, %v", c, ok)
	}
}
