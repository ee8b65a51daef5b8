package profile

import (
	"math/rand"
	"testing"
)

// u64set against map[uint64]struct{} under the insert rule the collector
// used to apply to its maps: insert while under the cap.
func TestU64SetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	draws := []struct {
		name string
		n    int
		key  func(i int) uint64
	}{
		{"small-dense", 5000, func(int) uint64 { return uint64(rng.Intn(300)) }}, // key 0 included
		{"sequential", 40000, func(i int) uint64 { return uint64(i / 2) }},
		{"addresses", 40000, func(int) uint64 { return 0x0a000000 | uint64(rng.Intn(1<<14))<<8 }},
		{"hashed", 30000, func(int) uint64 { return rng.Uint64() }},
		{"high-bits-only", 30000, func(int) uint64 { return uint64(rng.Intn(20000)) << 44 }},
		{"past-the-cap", 3 * keyCardCap, func(i int) uint64 { return uint64(i%(2*keyCardCap)) * 0x9e3779b97f4a7c15 }},
	}
	var s u64set
	for _, d := range draws {
		t.Run(d.name, func(t *testing.T) {
			s = u64set{} // what Collector.Reset does
			ref := map[uint64]struct{}{}
			for i := 0; i < d.n; i++ {
				k := d.key(i)
				s.add(k)
				if len(ref) < keyCardCap {
					ref[k] = struct{}{}
				}
				if s.n != len(ref) {
					t.Fatalf("after %d adds (last %#x): n = %d, map has %d", i+1, k, s.n, len(ref))
				}
			}
			if s.n > keyCardCap {
				t.Fatalf("n = %d exceeds the cap", s.n)
			}
			if 4*s.n > 3*len(s.slots)+4 {
				t.Errorf("load %d/%d above three quarters", s.n, len(s.slots))
			}
			held := 0
			for _, k := range s.slots {
				if k != 0 {
					held++
					if _, ok := ref[k]; !ok {
						t.Fatalf("set holds %#x, map does not", k)
					}
				}
			}
			if s.zero {
				held++
			}
			if _, ok := ref[0]; ok != s.zero || held != s.n {
				t.Fatalf("held %d keys (zero %v) for n = %d", held, s.zero, s.n)
			}
		})
	}
}
