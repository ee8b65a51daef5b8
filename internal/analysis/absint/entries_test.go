package absint

import (
	"math/rand"
	"reflect"
	"testing"

	"pipeleon/internal/p4ir"
)

// AnalyzeTable finds strictly dominated entries with one lookup per mask
// group. On random ternary tables — few masks and values, so entries
// collide, nest and tie — it reports exactly the pairs a scan of every
// (entry, entry) pair finds, in the same order and with the same killer:
// the first entry that dominates.
func TestDominationMatchesPairwiseScan(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	masks := []uint64{0, 0xf0, 0x0f, 0xff, 0x3c}
	found := 0
	for trial := range 400 {
		nk := 1 + trial%3
		tbl := &p4ir.Table{Name: "t", Actions: []*p4ir.Action{p4ir.NoopAction("a")}}
		for i := range nk {
			tbl.Keys = append(tbl.Keys, p4ir.Key{Field: "meta.k" + string(rune('0'+i)), Kind: p4ir.MatchTernary, Width: 8})
		}
		for range rng.Intn(60) {
			e := p4ir.Entry{Priority: rng.Intn(6), Action: "a"}
			for range nk {
				e.Match = append(e.Match, p4ir.MatchValue{Value: uint64(rng.Intn(4)) * 0x11, Mask: masks[rng.Intn(len(masks))]})
			}
			tbl.Entries = append(tbl.Entries, e)
		}
		facts := AnalyzeTable(tbl)
		losers := map[int]bool{}
		var got []Shadow
		for _, s := range facts.Shadows {
			switch {
			case s.Duplicate:
				losers[s.Entry] = true
			case !s.Covered:
				got = append(got, s)
			}
		}
		if want := pairwiseDominated(tbl, losers); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: dominated %v, pairwise scan %v", trial, got, want)
		}
		found += len(got)
	}
	if found < 400 {
		t.Errorf("vacuous: %d dominated entries over 400 tables", found)
	}
}

// pairwiseDominated is the scan AnalyzeTable's lookups replaced: for each
// installed entry a, the first installed entry b of strictly higher
// priority whose match set contains a's.
func pairwiseDominated(t *p4ir.Table, losers map[int]bool) []Shadow {
	masked := func(e *p4ir.Entry) (m, v []uint64) {
		for i, k := range t.Keys {
			mk := k.MatchMask(e.Match[i])
			m, v = append(m, mk), append(v, e.Match[i].Value&mk)
		}
		return m, v
	}
	var out []Shadow
	for a := range t.Entries {
		if losers[a] {
			continue
		}
		ma, va := masked(&t.Entries[a])
		for b := range t.Entries {
			if a == b || losers[b] || t.Entries[b].Priority <= t.Entries[a].Priority {
				continue
			}
			mb, vb := masked(&t.Entries[b])
			dominates := true
			for i := range ma {
				if mb[i]&^ma[i] != 0 || (va[i]^vb[i])&mb[i] != 0 {
					dominates = false
					break
				}
			}
			if dominates {
				out = append(out, Shadow{Entry: a, By: b})
				break
			}
		}
	}
	return out
}
