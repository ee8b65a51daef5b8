package p4ir

import (
	"testing"
	"testing/quick"
)

// Property tests on the key/mask arithmetic every lookup depends on.

func TestPrefixMaskProperties(t *testing.T) {
	f := func(width8 uint8, plen8 uint8) bool {
		width := int(width8%64) + 1
		plen := int(plen8 % 70) // may exceed width on purpose
		k := Key{Width: width}
		mask := k.PrefixMask(plen)
		full := k.FullMask()
		// Mask is always within the field.
		if mask&^full != 0 {
			return false
		}
		// Longer prefixes only add bits: PrefixMask(p) ⊆ PrefixMask(p+1).
		if plen < width {
			longer := k.PrefixMask(plen + 1)
			if mask&^longer != 0 {
				return false
			}
		}
		// At or beyond the width the mask is full; at zero it is empty.
		if plen >= width && mask != full {
			return false
		}
		if plen == 0 && mask != 0 {
			return false
		}
		// Popcount equals min(plen, width).
		want := plen
		if want > width {
			want = width
		}
		return popcount(mask) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func popcount(v uint64) int {
	n := 0
	for v != 0 {
		v &= v - 1
		n++
	}
	return n
}

func TestFullMaskProperties(t *testing.T) {
	f := func(width8 uint8) bool {
		width := int(width8 % 80) // may exceed 64
		k := Key{Width: width}
		m := k.FullMask()
		bw := k.BitWidth()
		if bw <= 0 || bw > 64 {
			return false
		}
		if bw == 64 {
			return m == ^uint64(0)
		}
		return popcount(m) == bw && m == (uint64(1)<<bw)-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: any program the builder accepts round-trips through JSON with
// identical topology (node names and successor sets).
func TestBuilderProgramsRoundTripTopology(t *testing.T) {
	f := func(nTables uint8, drop bool) bool {
		n := int(nTables%6) + 1
		b := NewBuilder("prop")
		var names []string
		for i := 0; i < n; i++ {
			name := string(rune('a' + i))
			names = append(names, name)
		}
		for i, name := range names {
			acts := []*Action{NoopAction("n")}
			if drop && i == n-1 {
				acts = append(acts, DropAction())
			}
			next := ""
			if i+1 < n {
				next = names[i+1]
			}
			b.Table(TableSpec{Name: name,
				Keys:    []Key{{Field: "ipv4.dstAddr", Kind: MatchExact}},
				Actions: acts, Next: next})
		}
		prog, err := b.build()
		if err != nil {
			return false
		}
		data, err := prog.MarshalJSON()
		if err != nil {
			return false
		}
		back := &Program{}
		if err := back.UnmarshalJSON(data); err != nil {
			return false
		}
		if back.NumNodes() != prog.NumNodes() {
			return false
		}
		for _, name := range prog.NodeNames() {
			a := successors(prog, name)
			bb := successors(back, name)
			if len(a) != len(bb) {
				return false
			}
			for i := range a {
				if a[i] != bb[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
