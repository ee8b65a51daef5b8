package analysis_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"pipeleon/internal/analysis"
	"pipeleon/internal/costmodel"
	"pipeleon/internal/diag"
	"pipeleon/internal/opt"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/synth"
)

var updateDeepGolden = flag.Bool("update-golden", false, "rewrite the golden files under testdata/ from this build")

const deepGoldenFile = "testdata/deep_golden.txt"

// The semantic tier's output as golden data: the full text of every
// diagnostic SemanticChecker.Verify and LintDeep print about the
// synth-proof program (the 54-table program of the proof benches), about
// every option its search enumerates applied alone, and about its jointly
// applied plan. Frozen from the checker that compiled each candidate whole
// and ran every path class from the root; the table cache and the class
// tree must reproduce it byte for byte.
// `go test ./internal/analysis -run TestDeepGolden -update-golden`
// rewrites it.
func TestDeepGolden(t *testing.T) {
	orig := synth.Program(synth.ProgramSpec{Pipelets: 20, AvgLen: 3, Category: synth.Mixed, Seed: 7})
	prof := synth.SynthesizeProfile(orig, synth.ProfileSpec{Seed: 8, Category: synth.Mixed})
	pm := costmodel.BlueField2()
	sc := analysis.NewSemanticChecker(orig)

	// Nearly every case prints one of a few lists, so each distinct list is
	// written once, after the cases, and a case names it by number.
	var w strings.Builder
	var lists []string
	ids := map[string]int{}
	ref := func(tier string, l diag.List) {
		var b strings.Builder
		fmt.Fprintf(&b, "%d diagnostics\n", len(l))
		for _, d := range l {
			fmt.Fprintf(&b, "  %s\n", d)
		}
		id, ok := ids[b.String()]
		if !ok {
			id = len(lists)
			ids[b.String()] = id
			lists = append(lists, b.String())
		}
		fmt.Fprintf(&w, "%s: list %d\n", tier, id)
	}
	dump := func(label string, p *p4ir.Program) {
		fmt.Fprintf(&w, "== %s\n", label)
		ref("verify", sc.Verify(p))
		ref("lintdeep", analysis.LintDeep(p))
	}
	dump("original", orig)

	// Every option, shallow search: options the semantic tier refuses are
	// enumerated too, and their SE text is what this file pins.
	cfg := opt.DefaultConfig()
	cfg.TopKFrac = 1
	s, err := opt.NewSession(orig, pm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Search(prof)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, u := range res.Units {
		for _, o := range u.Options {
			rw, err := opt.Apply(orig, []*opt.Option{o}, cfg)
			if err != nil {
				fmt.Fprintf(&w, "== option %.72s\napply: %v\n", o, err)
				continue
			}
			dump(fmt.Sprintf("option %d: %.72s", n, o), rw.Program)
			n++
		}
	}

	// The joint plan of the deep search, as the synth-proof workload runs it.
	cfg.DeepVerify = true
	s, err = opt.NewSession(orig, pm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, rw, err := s.SearchAndApply(prof)
	if err != nil || rw == nil {
		t.Fatalf("no joint plan: %v", err)
	}
	dump("joint", rw.Program)

	for id, l := range lists {
		fmt.Fprintf(&w, "-- list %d: %s", id, l)
	}
	got := w.String()
	if *updateDeepGolden {
		if err := os.WriteFile(deepGoldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %d options", deepGoldenFile, n)
		return
	}
	want, err := os.ReadFile(deepGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("%s differs at line %d:\n got %q\nwant %q", deepGoldenFile, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s differs in length: %d lines, want %d", deepGoldenFile, len(gl), len(wl))
	}
}
