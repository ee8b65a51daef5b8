package opt

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/profile"
	"pipeleon/internal/synth"
)

// The search's output as golden data. Every unit option a warm session
// enumerates — order, segments, the bits of its gain and update cost, its
// memory cost — and the plan it selects are dumped per round and hashed,
// one SHA-256 per case, frozen in testdata/search_golden.txt by the
// enumerate-and-score search the skeleton/price split replaced. A change
// to the search reproduces the file or explains, case by case, why not;
// `go test ./internal/opt -run TestSearchGolden -update-golden` rewrites it.

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/search_golden.txt from this build's search")

const goldenFile = "testdata/search_golden.txt"

// dumpResult writes everything of a round a caller can observe.
func dumpResult(w *strings.Builder, label string, res *SearchResult) {
	fmt.Fprintf(w, "%s baseline=%x gain=%x candidates=%d units=%d\n", label,
		math.Float64bits(res.BaselineLatency), math.Float64bits(res.Gain), res.CandidatesEvaluated, len(res.Units))
	for _, u := range res.Units {
		fmt.Fprintf(w, " unit %s %d\n", u.Name, len(u.Options))
		for _, o := range u.Options {
			fmt.Fprintf(w, "  %s gain=%x mem=%d upd=%x\n", o, math.Float64bits(o.Gain), o.MemCost, math.Float64bits(o.UpdateCost))
		}
	}
	for _, o := range res.Plan {
		fmt.Fprintf(w, " plan %s\n", o)
	}
}

// goldenCases runs every golden case on a warm session and returns its dump
// by name, in a fixed order.
func goldenCases(t *testing.T) (names []string, dumps map[string]string) {
	t.Helper()
	dumps = map[string]string{}
	add := func(name string, w *strings.Builder) {
		names = append(names, name)
		dumps[name] = w.String()
	}
	// The session corpus under three drifting profiles: the case's own, one
	// packet moved, an entirely different workload.
	for i := 0; i < sessionSeeds; i++ {
		pspec, profSpec, pm := sessionCase(i)
		prog := synth.Program(pspec)
		p1 := synth.SynthesizeProfile(prog, profSpec)
		profs := []*profile.Profile{p1, perturb(p1),
			synth.SynthesizeProfile(prog, synth.ProfileSpec{Seed: profSpec.Seed + 999, Category: profSpec.Category})}
		s, err := NewSession(prog, pm, sessionConfig(i, prog))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		var w strings.Builder
		for r, prof := range profs {
			res, err := s.Search(prof)
			if err != nil {
				t.Fatalf("case %d round %d: %v", i, r, err)
			}
			dumpResult(&w, fmt.Sprintf("round %d", r), res)
		}
		add(fmt.Sprintf("corpus-%03d", i), &w)
	}
	// The 110-table program of the end-to-end benchmark's synth-shift
	// workload through twelve rounds whose traffic category rotates, with
	// the runtime's hit-rate feedback written between rounds into the
	// override map the session's config aliases.
	prog := synth.Program(synth.ProgramSpec{Pipelets: 40, AvgLen: 3, Category: synth.Mixed, Seed: 7})
	cfg := DefaultConfig()
	cfg.HitRateOverride = map[string]float64{}
	s, err := NewSession(prog, costmodel.BlueField2(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var w strings.Builder
	for r := 0; r < 12; r++ {
		prof := synth.SynthesizeProfile(prog, synth.ProfileSpec{Seed: uint64(500 + r), Category: synth.Category(r % 4)})
		res, err := s.Search(prof)
		if err != nil {
			t.Fatalf("synth110 round %d: %v", r, err)
		}
		dumpResult(&w, fmt.Sprintf("round %d", r), res)
		fmt.Fprintf(&w, " rescore=%x\n", math.Float64bits(s.ReScore(prof, res.Plan)))
		for k, o := range res.Plan {
			if o.Kind == OptPipelet {
				for _, sg := range o.Segments {
					cfg.HitRateOverride[SpanKey(o.SegTables(sg))] = 0.35 + 0.05*float64((r+k)%9)
				}
			}
		}
	}
	add("synth110-rotating", &w)

	// What neither corpus reaches: pipelets too long to permute (their one
	// alternative order is drop-sorted per round) under a segmentation cap
	// that cuts, and short ones under caps on orders, segmentations and
	// options kept that all cut.
	long := DefaultConfig()
	long.TopKFrac, long.MaxSegmentations = 1, 700
	tight := DefaultConfig()
	tight.TopKFrac, tight.MaxOrders, tight.MaxSegmentations, tight.MaxOptionsPerPipelet = 1, 6, 30, 20
	for _, c := range []struct {
		name string
		spec synth.ProgramSpec
		cfg  Config
	}{
		{"long-pipelets", synth.ProgramSpec{Pipelets: 6, AvgLen: 7, Category: synth.HeavyDrop, Seed: 31}, long},
		{"tight-caps", synth.ProgramSpec{Pipelets: 10, AvgLen: 3.5, Category: synth.Mixed, Seed: 32}, tight},
	} {
		prog := synth.Program(c.spec)
		s, err := NewSession(prog, costmodel.AgilioCX(), c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		var w strings.Builder
		for r := 0; r < 6; r++ {
			prof := synth.SynthesizeProfile(prog, synth.ProfileSpec{Seed: uint64(900 + r), Category: synth.Category(r % 4)})
			res, err := s.Search(prof)
			if err != nil {
				t.Fatalf("%s round %d: %v", c.name, r, err)
			}
			dumpResult(&w, fmt.Sprintf("round %d", r), res)
		}
		add(c.name, &w)
	}
	return names, dumps
}

func TestSearchGolden(t *testing.T) {
	names, dumps := goldenCases(t)
	// GOLDEN_DUMP_DIR=dir keeps the dumps themselves, to diff two builds.
	if dir := os.Getenv("GOLDEN_DUMP_DIR"); dir != "" {
		for _, name := range names {
			if err := os.WriteFile(dir+"/"+name+".txt", []byte(dumps[name]), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	if *updateGolden {
		var out strings.Builder
		for _, name := range names {
			fmt.Fprintf(&out, "%s %x\n", name, sha256.Sum256([]byte(dumps[name])))
		}
		if err := os.WriteFile(goldenFile, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if name, sum, ok := strings.Cut(sc.Text(), " "); ok {
			want[name] = sum
		}
	}
	if len(want) != len(names) {
		t.Fatalf("%s holds %d cases, the test runs %d", goldenFile, len(want), len(names))
	}
	for _, name := range names {
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(dumps[name]))); got != want[name] {
			t.Errorf("%s: search output changed (sha256 %s, golden %s)", name, got, want[name])
		}
	}
}
