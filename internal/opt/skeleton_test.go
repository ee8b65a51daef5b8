package opt

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/pipelet"
	"pipeleon/internal/profile"
	"pipeleon/internal/profile/profiletest"
	"pipeleon/internal/synth"
)

// What the golden hashes cannot aim at: properties of the skeleton/price
// split, each against a reference written out here.

// enumerateAndScore is LocalOptimize as it was before the split, over the
// skeleton's own candidate lists: every candidate priced on its own by
// seqLatencyIdx, an entry per positive one, a stable sort by gain, a cut.
func enumerateAndScore(ev *Evaluator, sk *skeleton) []*Option {
	if len(sk.orders) == 0 {
		return nil
	}
	own := sk.orders[0]
	baseline := ev.seqLatencyIdx(own.order, own.idx, nil)
	var opts []*Option
	for oi, os := range sk.orders {
		for c := range os.shape.ends[1:] {
			segs := os.shape.segments(c)
			if oi == 0 && len(segs) == 0 {
				continue
			}
			if gain := (baseline - ev.seqLatencyIdx(os.order, os.idx, segs)) * ev.reachOf(sk.p.Head()); gain > 1e-12 {
				opts = append(opts, &Option{Kind: OptPipelet, Pipelet: sk.p, Order: os.order, Segments: segs, Gain: gain})
			}
		}
	}
	sort.SliceStable(opts, func(i, j int) bool { return opts[i].Gain > opts[j].Gain })
	if len(opts) > ev.caps.options {
		opts = opts[:ev.caps.options]
	}
	return opts
}

// Property: the bounded selection is a stable sort by gain and a cut, tied
// gains included. Four exact tables that drop nothing and cost the same
// make every reorder of a layout tie with it, so whole runs of candidates
// share a gain and the cut falls inside a run; limits from 1 up exercise
// the buffer's compaction (it is cut back every 2·limit picks).
func TestBoundedSelectionIsStableSortAndTruncate(t *testing.T) {
	prog := mustChain(t,
		plainSpec("t1", "f.a", p4ir.MatchExact), plainSpec("t2", "f.b", p4ir.MatchExact),
		plainSpec("t3", "f.c", p4ir.MatchExact), plainSpec("t4", "f.d", p4ir.MatchExact))
	p := singlePipelet(t, prog)
	for _, limit := range []int{1, 2, 3, 7, 64, 512, 5000} {
		ev := NewEvaluator(prog, profile.New(), costmodel.BlueField2(), DefaultConfig())
		ev.caps.options = limit
		sk := newSkeleton(ev, p)
		want, got := enumerateAndScore(ev, sk), ev.price(sk)
		if len(want) != len(got) || len(got) == 0 {
			t.Fatalf("limit %d: %d options, reference %d", limit, len(got), len(want))
		}
		ties := 0
		for i := range want {
			if want[i].String() != got[i].String() || math.Float64bits(want[i].Gain) != math.Float64bits(got[i].Gain) {
				t.Fatalf("limit %d: option %d is %s (gain %v), reference %s (gain %v)",
					limit, i, got[i], got[i].Gain, want[i], want[i].Gain)
			}
			if i > 0 && want[i].Gain == want[i-1].Gain {
				ties++
			}
		}
		if limit >= 64 && ties == 0 {
			t.Fatalf("limit %d: no tied gains among %d options; the test aims at nothing", limit, len(want))
		}
	}
}

// Property: over the session corpus, pricing a skeleton yields the
// reference's options — order, segments and gain bits — for every pipelet.
func TestPriceMatchesEnumerateAndScore(t *testing.T) {
	for i := 0; i < sessionSeeds; i += 7 {
		pspec, profSpec, pm := sessionCase(i)
		prog := synth.Program(pspec)
		cfg := DefaultConfig()
		cfg.HitRateOverride = map[string]float64{}
		ev := NewEvaluator(prog, synth.SynthesizeProfile(prog, profSpec), pm, cfg)
		part, err := pipelet.Form(prog, cfg.MaxPipeletLen)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range part.Pipelets {
			sk := newSkeleton(ev, p)
			want, got := enumerateAndScore(ev, sk), ev.price(sk)
			if len(want) != len(got) {
				t.Fatalf("seed %d %s: %d options, reference %d", i, p, len(got), len(want))
			}
			for k := range want {
				if want[k].String() != got[k].String() || math.Float64bits(want[k].Gain) != math.Float64bits(got[k].Gain) {
					t.Fatalf("seed %d %s: option %d is %s (gain %v), reference %s (gain %v)",
						i, p, k, got[k], got[k].Gain, want[k], want[k].Gain)
				}
				// The runtime's feedback for the next pipelet's pricing.
				for _, sg := range got[k].Segments {
					cfg.HitRateOverride[SpanKey(got[k].segTables(sg))] = 0.5
				}
			}
		}
	}
}

// Property: a cap cuts the enumeration, it does not reshape it. The
// segmentations under a cap of m are the first m of the uncapped list, and
// a cap on orders either admits every valid permutation or none but the
// pipelet's own order.
func TestCapsCutTheEnumeration(t *testing.T) {
	prog := mustChain(t,
		plainSpec("t1", "f.a", p4ir.MatchExact), plainSpec("t2", "f.b", p4ir.MatchTernary),
		plainSpec("t3", "f.c", p4ir.MatchExact), plainSpec("t4", "f.d", p4ir.MatchExact))
	order := []string{"t1", "t2", "t3", "t4"}
	cfg := DefaultConfig()
	all := segmentationsOf(prog, cfg, order, maxSegmentations)
	if len(all) != 49 {
		t.Fatalf("%d segmentations of four independent tables, want 49", len(all))
	}
	for _, m := range []int{1, 2, 5, 17, 48, 49, 50} {
		if got := segmentationsOf(prog, cfg, order, m); !reflect.DeepEqual(got, all[:min(m, len(all))]) {
			t.Errorf("segmentation cap %d: %d segmentations, not the first %d of the uncapped list", m, len(got), m)
		}
	}
	ev := NewEvaluator(prog, profile.New(), costmodel.BlueField2(), cfg)
	full, exhaustive := enumerateOrders(ev, order, 24)
	if len(full) != 24 || !exhaustive || !reflect.DeepEqual(full[0], order) {
		t.Fatalf("order cap 24: %d orders (exhaustive %v), want all 24 with the own order first", len(full), exhaustive)
	}
	if capped, exhaustive := enumerateOrders(ev, order, 23); len(capped) != 1 || exhaustive {
		t.Fatalf("order cap 23: %d orders (exhaustive %v), want the own order alone", len(capped), exhaustive)
	}
}

// Property: a pipelet too long to permute still follows the profile's drop
// order round to round. Nine independent ACLs; each round another one drops
// the most and must lead the best option, a drop order that holds reuses
// the analyzed order, and every round is a cold search's.
func TestLongPipeletFollowsDropOrder(t *testing.T) {
	var specs []p4ir.TableSpec
	for i := 0; i < 9; i++ {
		specs = append(specs, aclSpec(fmt.Sprintf("a%d", i), fmt.Sprintf("f.x%d", i)))
	}
	prog := mustChain(t, specs...)
	cfg := DefaultConfig()
	cfg.MaxPipeletLen, cfg.TopKFrac = 9, 1
	pm := costmodel.BlueField2()
	s, err := NewSession(prog, pm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	window := func(hot int) *profile.Profile {
		col := profile.NewCollector()
		rec := profiletest.New(col)
		for i := 0; i < 9; i++ {
			pct := 5 + i
			if i == hot {
				pct = 60
			}
			recordDrops(rec, fmt.Sprintf("a%d", i), pct)
		}
		return col.Snapshot()
	}
	var held *orderSkel
	for round, hot := range []int{7, 3, 3, 8} {
		prof := window(hot)
		warm, err := s.Search(prof)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := coldSession(t, prog, pm, cfg).Search(prof)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, fmt.Sprintf("round %d", round), cold, warm)
		if len(warm.Plan) != 1 || warm.Plan[0].Order[0] != fmt.Sprintf("a%d", hot) {
			t.Fatalf("round %d: plan %v does not lead with a%d", round, warm.Plan, hot)
		}
		sorted := s.skels[0].dropSorted
		if round == 2 && sorted != held {
			t.Error("round 2: an unchanged drop order was analyzed again")
		}
		if round != 2 && sorted == held {
			t.Errorf("round %d: a new drop order reused the old analysis", round)
		}
		held = sorted
	}
	if st := s.Stats(); st.UnitMisses != 1 || st.UnitHits != 3 {
		t.Errorf("one pipelet over four rounds: %d skeletons built, %d reused", st.UnitMisses, st.UnitHits)
	}
}

// Property: the override map is aliased, not copied, so hit rates written
// between rounds re-price the cache spans of the next — even a search of the
// very profile the view is already on — exactly as a cold search under the
// same overrides does.
func TestOverridesWrittenBetweenRoundsReprice(t *testing.T) {
	pspec, profSpec, pm := sessionCase(5)
	prog := synth.Program(pspec)
	prof := synth.SynthesizeProfile(prog, profSpec)
	cfg := DefaultConfig()
	cfg.TopKFrac = 1
	cfg.HitRateOverride = map[string]float64{}
	s, err := NewSession(prog, pm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before, err := s.Search(prof)
	if err != nil {
		t.Fatal(err)
	}
	written := 0
	for _, o := range before.Plan {
		if o.Kind != OptPipelet {
			continue
		}
		for _, sg := range o.Segments {
			if sg.Kind == SegCache {
				cfg.HitRateOverride[SpanKey(o.segTables(sg))] = 0.02
				written++
			}
		}
	}
	if written == 0 {
		t.Fatal("the plan caches nothing; no feedback to write")
	}
	after, err := s.Search(prof)
	if err != nil {
		t.Fatal(err)
	}
	if after.Gain >= before.Gain {
		t.Fatalf("a 2%% observed hit rate on every planned cache left the gain at %v (was %v)", after.Gain, before.Gain)
	}
	cold, err := coldSession(t, prog, pm, cfg).Search(prof)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "after feedback", cold, after)
}
