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

	"pipeleon/internal/analysis"
	"pipeleon/internal/costmodel"
	"pipeleon/internal/diag"
	"pipeleon/internal/p4c"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/profile"
	"pipeleon/internal/synth"
	"pipeleon/internal/target"
)

// The search's output as golden data. Every unit option a warm session
// enumerates — order, segments, the bits of its gain and update cost, its
// memory cost — and the plan it selects are dumped per round and hashed,
// one SHA-256 per case, frozen in testdata/search_golden.txt by the
// enumerate-and-score search the skeleton/price split replaced. A change
// to the search reproduces the file or explains, case by case, why not;
// `go test ./internal/opt -run TestSearchGolden -update-golden` rewrites it.
//
// The same rounds freeze the static analysis: testdata/analysis_golden.txt
// holds one SHA-256 per case of every diagnostic Lint and VerifyRewrite
// print about the original, about each round's applied plan and about
// deliberately broken variants of it (dumpAnalysis), written by the
// string-keyed closure the dense graph replaced.

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden files under testdata/ from this build")

const (
	goldenFile         = "testdata/search_golden.txt"
	analysisGoldenFile = "testdata/analysis_golden.txt"
)

// goldenRound is one searched round of a golden case, as a dumper sees it.
type goldenRound struct {
	label string
	prog  *p4ir.Program
	pm    costmodel.Params
	cfg   Config
	res   *SearchResult
	// rescore is the plan's re-scored gain on the rounds that take one.
	rescore func() float64
}

// dumpResult writes everything of a round a caller can observe.
func dumpResult(w *strings.Builder, r goldenRound) {
	label, res := r.label, r.res
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
	if r.rescore != nil {
		fmt.Fprintf(w, " rescore=%x\n", math.Float64bits(r.rescore()))
	}
}

// dumpAnalysis writes what the static analysis says of a round: the lint
// of the original, then dumpVariants of the applied plan.
func dumpAnalysis(w *strings.Builder, r goldenRound) {
	fmt.Fprintf(w, "%s\n", r.label)
	dumpDiags(w, "lint orig", analysis.Lint(r.prog, analysis.WithParams(r.pm)))
	if len(r.res.Plan) == 0 {
		return
	}
	rw, err := Apply(r.prog, r.res.Plan, r.cfg)
	if err != nil {
		// Not the text: an apply error may name whichever table a map walk
		// reaches first, and the golden must not depend on map order.
		fmt.Fprintf(w, " apply failed\n")
		return
	}
	dumpVariants(w, r.prog, rw.Program, r.pm, 4)
}

func dumpDiags(w *strings.Builder, label string, l diag.List) {
	fmt.Fprintf(w, " %s %d\n", label, len(l))
	for _, d := range l {
		fmt.Fprintf(w, "  %s\n", d)
	}
}

// dumpVariants writes lint and rewrite proof of cand against orig, and
// both again for broken variants of cand: one plain table in every stride
// bypassed (nothing leads to it any more: PL101, RW001, RW003) and hoisted
// to the root (it now runs ahead of everything it depended on: RW002,
// PL102, PL106) — so the closure's answers, who precedes whom and who is
// reachable, show up as text rather than as empty lists.
func dumpVariants(w *strings.Builder, orig, cand *p4ir.Program, pm costmodel.Params, stride int) {
	both := func(label string, p *p4ir.Program) {
		dumpDiags(w, "lint "+label, analysis.Lint(p, analysis.WithParams(pm)))
		dumpDiags(w, "verify "+label, analysis.VerifyRewrite(orig, p))
	}
	both("plan", cand)
	order, err := orig.TopoOrder()
	if err != nil {
		return
	}
	var plain []string
	for _, name := range order {
		if t := cand.Tables[name]; t != nil && !t.IsSwitchCase() && name != cand.Root {
			plain = append(plain, name)
		}
	}
	for k := stride / 2; k < len(plain); k += stride {
		x := plain[k]
		bad := cand.Clone()
		redirect(bad, x, bad.Tables[x].BaseNext, nil)
		both("bypass "+x, bad)
		bad.Tables[x].BaseNext, bad.Root = bad.Root, x
		both("hoist "+x, bad)
	}
}

// goldenCases runs every golden case on a warm session and returns what
// dump wrote of its rounds by name, in a fixed order.
func goldenCases(t *testing.T, dump func(*strings.Builder, goldenRound)) (names []string, dumps map[string]string) {
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
		cfg := sessionConfig(i, prog)
		s, err := NewSession(prog, pm, cfg)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		var w strings.Builder
		for r, prof := range profs {
			res, err := s.Search(prof)
			if err != nil {
				t.Fatalf("case %d round %d: %v", i, r, err)
			}
			dump(&w, goldenRound{label: fmt.Sprintf("round %d", r), prog: prog, pm: pm, cfg: cfg, res: res})
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
		dump(&w, goldenRound{label: fmt.Sprintf("round %d", r), prog: prog, pm: costmodel.BlueField2(), cfg: cfg, res: res,
			rescore: func() float64 { return s.ReScore(prof, res.Plan) }})
		for k, o := range res.Plan {
			if o.Kind == OptPipelet {
				for _, sg := range o.Segments {
					cfg.HitRateOverride[SpanKey(o.segTables(sg))] = 0.35 + 0.05*float64((r+k)%9)
				}
			}
		}
	}
	add("synth110-rotating", &w)

	// What neither corpus reaches: pipelets too long to permute (their one
	// alternative order is drop-sorted per round) under a segmentation cap
	// that cuts, and short ones under caps on orders, segmentations and
	// options kept that all cut.
	all := DefaultConfig()
	all.TopKFrac = 1
	for _, c := range []struct {
		name string
		spec synth.ProgramSpec
		caps func(*searchCaps)
	}{
		{"long-pipelets", synth.ProgramSpec{Pipelets: 6, AvgLen: 7, Category: synth.HeavyDrop, Seed: 31},
			func(c *searchCaps) { c.segmentations = 700 }},
		{"tight-caps", synth.ProgramSpec{Pipelets: 10, AvgLen: 3.5, Category: synth.Mixed, Seed: 32},
			func(c *searchCaps) { c.orders, c.segmentations, c.options = 6, 30, 20 }},
	} {
		prog := synth.Program(c.spec)
		s, err := NewSession(prog, costmodel.AgilioCX(), all)
		if err != nil {
			t.Fatal(err)
		}
		s.withCaps(c.caps)
		var w strings.Builder
		for r := 0; r < 6; r++ {
			prof := synth.SynthesizeProfile(prog, synth.ProfileSpec{Seed: uint64(900 + r), Category: synth.Category(r % 4)})
			res, err := s.Search(prof)
			if err != nil {
				t.Fatalf("%s round %d: %v", c.name, r, err)
			}
			dump(&w, goldenRound{label: fmt.Sprintf("round %d", r), prog: prog, pm: costmodel.AgilioCX(), cfg: all, res: res})
		}
		add(c.name, &w)
	}
	return names, dumps
}

func TestSearchGolden(t *testing.T) {
	names, dumps := goldenCases(t, dumpResult)
	checkGolden(t, goldenFile, "search output", names, dumps)
}

// TestAnalysisGolden adds the checked-in programs to the searched rounds.
func TestAnalysisGolden(t *testing.T) {
	names, dumps := goldenCases(t, dumpAnalysis)
	src, err := os.ReadFile("../../testdata/dash.p4")
	if err != nil {
		t.Fatal(err)
	}
	dash, err := p4c.Compile(string(src))
	if err != nil {
		t.Fatal(err)
	}
	checked := map[string]*p4ir.Program{"dash.p4": dash}
	for _, name := range []string{"bluefield2", "agiliocx"} {
		trace, err := target.LoadTrace("../../testdata/traces/" + name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		if checked[name], err = trace.EmbeddedProgram(); err != nil {
			t.Fatal(err)
		}
	}
	// None of those has a field one table writes and another reads, so a
	// synthesized program gets one: every third table accumulates into
	// meta.chain (RAW between each ordered pair of them).
	chained := synth.Program(synth.ProgramSpec{Pipelets: 12, AvgLen: 3, Category: synth.Mixed, Seed: 42})
	for i, name := range sortedTables(chained) {
		if a := chained.Tables[name].Actions[0]; i%3 == 0 && !a.Drops() {
			a.Primitives = append(a.Primitives, p4ir.Primitive{Op: "add", Args: []string{"meta.chain", "meta.chain", "1"}})
		}
	}
	checked["chained"] = chained
	for _, name := range []string{"dash.p4", "bluefield2", "agiliocx", "chained"} {
		var w strings.Builder
		dumpVariants(&w, checked[name], checked[name], costmodel.BlueField2(), 1)
		names, dumps[name] = append(names, name), w.String()
	}
	checkGolden(t, analysisGoldenFile, "Lint/VerifyRewrite output", names, dumps)
}

// checkGolden compares the hash of every case's dump with file (or
// rewrites it under -update-golden).
func checkGolden(t *testing.T, file, what string, names []string, dumps map[string]string) {
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
		if err := os.WriteFile(file, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(file)
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
		t.Fatalf("%s holds %d cases, the test runs %d", file, len(want), len(names))
	}
	for _, name := range names {
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(dumps[name]))); got != want[name] {
			t.Errorf("%s: %s changed (sha256 %s, golden %s)", name, what, got, want[name])
		}
	}
}
