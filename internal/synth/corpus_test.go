package synth

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/bits"
	"os"
	"reflect"
	"strings"
	"testing"

	"pipeleon/internal/p4ir"
	"pipeleon/internal/stats"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/corpus_digests.txt from this build")

const corpusGoldenFile = "testdata/corpus_digests.txt"

// corpusGroups lists the programs whose digests are pinned, in groups: the
// corpus of seeds 0-39 at four pipelet counts in every category, and the
// programs the experiments' fig10 and fig14 synthesize at their default
// seed (42) and full sample counts.
func corpusGroups() (names []string, specs [][]ProgramSpec) {
	add := func(name string, g []ProgramSpec) {
		names, specs = append(names, name), append(specs, g)
	}
	for cat := Mixed; cat <= HighLocality; cat++ {
		for _, pn := range []int{4, 16, 20, 40} {
			var g []ProgramSpec
			for seed := uint64(0); seed < 40; seed++ {
				g = append(g, ProgramSpec{Pipelets: pn, AvgLen: 3, Category: cat, Seed: seed})
			}
			add(fmt.Sprintf("corpus %s pn=%d", cat, pn), g)
		}
	}
	const expSeed = 42
	for _, cat := range []Category{HeavyDrop, SmallStatic, HighLocality} {
		for gi, avgLen := range []float64{1.5, 2.5, 3.5} {
			var g []ProgramSpec
			for i := 0; i < 100; i++ {
				seed := expSeed + uint64(gi*1000+i)*11 + uint64(cat)*77
				g = append(g, ProgramSpec{Pipelets: 1, AvgLen: avgLen, Category: cat, Seed: seed})
			}
			add(fmt.Sprintf("fig10 %s group=%d", cat, gi), g)
		}
	}
	var g []ProgramSpec
	for i := 0; i < 30; i++ {
		g = append(g, ProgramSpec{Pipelets: 12, AvgLen: 2, Category: Mixed, Seed: expSeed + uint64(i)*211})
	}
	add("fig14", g)
	return names, specs
}

// TestCorpusDigestsFrozen pins what the synthesizer emits — structure and
// every entry — to the digests frozen from the map-probing entry placement:
// one SHA-256 over the program digests of each group. Placement by
// occupancy bitmap must reproduce them byte for byte.
// `go test ./internal/synth -run TestCorpusDigestsFrozen -update-golden`
// rewrites it.
func TestCorpusDigestsFrozen(t *testing.T) {
	names, specs := corpusGroups()
	var w strings.Builder
	for i, g := range specs {
		h := sha256.New()
		for _, spec := range g {
			d := Program(spec).Digest()
			h.Write(d[:])
		}
		fmt.Fprintf(&w, "%s %x\n", names[i], h.Sum(nil))
	}
	got := w.String()
	if *updateGolden {
		if err := os.WriteFile(corpusGoldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(corpusGoldenFile)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%d groups, %s has %d", len(gl), corpusGoldenFile, len(wl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("digest differs:\n got: %s\nwant: %s", gl[i], wl[i])
		}
	}
}

// referenceEntries is syntheticEntries as it was before occupancy bitmaps:
// one map of (signature, value) for the whole table, probed once per try.
func referenceEntries(rng *stats.RNG, ts p4ir.TableSpec, n int) []p4ir.Entry {
	entries := make([]p4ir.Entry, 0, n)
	seen := map[[3]uint64]bool{}
	groupN := map[[2]uint64]int{}
	place := func(k p4ir.Key, raw uint64, i int) (placedMatch, bool) {
		classes := 1
		switch k.Kind {
		case p4ir.MatchLPM:
			classes = 3
		case p4ir.MatchTernary, p4ir.MatchRange:
			classes = 5
		}
		for attempt := 0; attempt < classes; attempt++ {
			c := (i + attempt) % classes
			mv := placedMatch{MatchValue: p4ir.MatchValue{Value: raw}}
			mask := k.FullMask()
			sig := [2]uint64{uint64(p4ir.MatchExact)}
			switch k.Kind {
			case p4ir.MatchLPM:
				mv.PrefixLen = (1 + c) * k.BitWidth() / 4
				mask = k.PrefixMask(mv.PrefixLen)
				sig = [2]uint64{uint64(p4ir.MatchLPM), uint64(mv.PrefixLen)}
			case p4ir.MatchTernary, p4ir.MatchRange:
				mask = k.FullMask() &^ ((uint64(1) << (c * 2)) - 1)
				mv.Mask = mask
				mv.priority = 5 - c
				sig = [2]uint64{uint64(p4ir.MatchTernary), mask}
			}
			mv.Value &= mask
			step := mask & -mask
			space := uint64(1) << 62
			if k.Kind == p4ir.MatchTernary || k.Kind == p4ir.MatchRange {
				if step == 0 {
					space = 1
				} else if w := bits.OnesCount64(mask); w < 62 {
					space = (uint64(1) << w) - 1
				}
			}
			if uint64(groupN[sig]) >= space {
				continue
			}
			free := true
			for tries := 0; seen[[3]uint64{sig[0], sig[1], mv.Value}]; tries++ {
				if step == 0 || tries >= 1<<12 {
					free = false
					break
				}
				mv.Value = (mv.Value + step) & mask
			}
			if !free {
				continue
			}
			seen[[3]uint64{sig[0], sig[1], mv.Value}] = true
			groupN[sig]++
			return mv, true
		}
		return placedMatch{}, false
	}
	for i := 0; i < n; i++ {
		e := p4ir.Entry{Action: "act_main"}
		ok := true
		for _, k := range ts.Keys {
			mv, placed := place(k, uint64(rng.Intn(1<<min(k.BitWidth(), 20))), i)
			if !placed {
				ok = false
				break
			}
			if k.Kind == p4ir.MatchTernary || k.Kind == p4ir.MatchRange {
				e.Priority = mv.priority
			}
			e.Match = append(e.Match, mv.MatchValue)
		}
		if ok {
			entries = append(entries, e)
		}
	}
	return entries
}

// Property: tables of several keys place exactly the entries the map did,
// down to collisions between sibling keys that share a signature — two
// exact keys of different widths, LPM keys whose prefixes coincide (a /8
// on 16 and on 32 bits), a ternary and a range key of one width — and
// through groups filled past their cap, where classes spill and the
// 4096-try bound gives up.
func TestSyntheticEntriesMatchReference(t *testing.T) {
	key := func(field string, kind p4ir.MatchKind, width int) p4ir.Key {
		return p4ir.Key{Field: field, Kind: kind, Width: width}
	}
	tables := [][]p4ir.Key{
		{key("a", p4ir.MatchExact, 8), key("b", p4ir.MatchExact, 16)},
		{key("a", p4ir.MatchExact, 8), key("b", p4ir.MatchExact, 8)},
		{key("a", p4ir.MatchLPM, 16), key("b", p4ir.MatchLPM, 32)},
		{key("a", p4ir.MatchLPM, 8), key("b", p4ir.MatchLPM, 8), key("c", p4ir.MatchLPM, 16)},
		{key("a", p4ir.MatchTernary, 8), key("b", p4ir.MatchRange, 8)},
		{key("a", p4ir.MatchTernary, 4), key("b", p4ir.MatchTernary, 6), key("c", p4ir.MatchExact, 4)},
		{key("a", p4ir.MatchExact, 32), key("b", p4ir.MatchLPM, 32), key("c", p4ir.MatchTernary, 16)},
	}
	for ti, keys := range tables {
		for _, n := range []int{5, 40, 300} {
			for seed := uint64(1); seed <= 3; seed++ {
				ts := p4ir.TableSpec{Name: fmt.Sprintf("t%d", ti), Keys: keys}
				got := syntheticEntries(stats.NewRNG(seed), ts, n)
				want := referenceEntries(stats.NewRNG(seed), ts, n)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("table %d (%v), %d entries, seed %d: placed %d entries, the map placed %d, or they differ",
						ti, keys, n, seed, len(got), len(want))
				}
			}
		}
	}
}
