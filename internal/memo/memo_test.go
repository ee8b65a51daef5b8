package memo

import "testing"

func TestTableEvictsOldestAtCapacity(t *testing.T) {
	tb := New[int, string](3)
	for i := 0; i < 3; i++ {
		tb.Put(i, "v")
	}
	tb.Put(1, "again") // overwrite: no growth, no eviction
	if tb.Len() != 3 {
		t.Fatalf("len = %d, want 3", tb.Len())
	}
	tb.Put(3, "v") // evicts 0, the oldest
	tb.Put(4, "v") // evicts 1
	for k, want := range map[int]bool{0: false, 1: false, 2: true, 3: true, 4: true} {
		if _, ok := tb.Get(k); ok != want {
			t.Errorf("key %d present = %v, want %v", k, ok, want)
		}
	}
	if tb.Len() != 3 {
		t.Errorf("len = %d, want 3", tb.Len())
	}
	if h, m := tb.Stats(); h != 3 || m != 2 {
		t.Errorf("stats = %d hits %d misses, want 3 and 2", h, m)
	}
	tb.Reset()
	if tb.Len() != 0 {
		t.Errorf("len after reset = %d", tb.Len())
	}
	for i := 10; i < 20; i++ {
		tb.Put(i, "v")
	}
	if _, ok := tb.Get(19); !ok || tb.Len() != 3 {
		t.Errorf("after reset and refill: len %d, newest present %v", tb.Len(), ok)
	}
}
