package profile

import "math/bits"

// keyCardCap bounds every distinct-key and distinct-flow set. Beyond the
// cap the cardinality saturates, which is fine: the cache planner only
// needs to know "small" vs "much larger than any cache budget".
const keyCardCap = 1 << 16

// u64set is an insert-only set of uint64 keys holding at most keyCardCap
// of them: open addressing with linear probing over a power-of-two slot
// array, at most three quarters full. A slot holding 0 is empty, so the
// key 0 is kept beside the array. The zero value is an empty set that
// owns no memory; a window is closed by assigning it, which releases the
// array instead of clearing up to a megabyte of it in place.
type u64set struct {
	slots []uint64
	shift uint // 64 - log2(len(slots))
	n     int  // keys held, the zero key included
	zero  bool
}

// add inserts k unless the set is at its cap.
func (s *u64set) add(k uint64) {
	if s.n >= keyCardCap {
		return
	}
	if k == 0 {
		if !s.zero {
			s.zero = true
			s.n++
		}
		return
	}
	if 4*(s.n+1) > 3*len(s.slots) {
		s.grow()
	}
	if s.put(k) {
		s.n++
	}
}

// put stores a non-zero key in a slot array with room for it and reports
// whether it was new.
func (s *u64set) put(k uint64) bool {
	mask := uint64(len(s.slots) - 1)
	// Fibonacci hashing: table keys are inserted as the masked key word
	// itself (addresses, ports), so the high bits of the product, not the
	// low bits of the key, pick the slot.
	for i := (k * 0x9e3779b97f4a7c15) >> s.shift; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case k:
			return false
		case 0:
			s.slots[i] = k
			return true
		}
	}
}

func (s *u64set) grow() {
	old := s.slots
	size := 2 * len(old)
	if size < 16 {
		size = 16
	}
	s.slots = make([]uint64, size)
	s.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, k := range old {
		if k != 0 {
			s.put(k)
		}
	}
}
