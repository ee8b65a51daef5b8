package analysis_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pipeleon/internal/analysis"
	"pipeleon/internal/p4c"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/stats"
	"pipeleon/internal/synth"
	"pipeleon/internal/target"
)

const edgesGoldenFile = "testdata/edges_golden.txt"

// edgePrograms are the programs the end-to-end benchmark's workloads run —
// synth-shift's, synth-proof's and fleet-remote's synthesized programs and
// the DASH program — plus the programs embedded in the recorded traces.
// None of those has a field one node writes and another touches, so
// tangled programs, whose nodes share fields drawn from a pool named out of
// order, supply the edges and their witnesses.
func edgePrograms(t *testing.T) []struct {
	name string
	prog *p4ir.Program
} {
	t.Helper()
	type named = struct {
		name string
		prog *p4ir.Program
	}
	var out []named
	for _, w := range []struct {
		name     string
		pipelets int
	}{{"synth-shift", 40}, {"synth-proof", 20}, {"fleet-remote", 16}} {
		out = append(out, named{w.name, synth.Program(synth.ProgramSpec{Pipelets: w.pipelets, AvgLen: 3, Category: synth.Mixed, Seed: 7})})
	}
	src, err := os.ReadFile("../../testdata/dash.p4")
	if err != nil {
		t.Fatal(err)
	}
	dash, err := p4c.Compile(string(src))
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, named{"dash.p4", dash})
	paths, err := filepath.Glob("../../testdata/traces/*.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		trace, err := target.LoadTrace(path)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := trace.EmbeddedProgram()
		if err != nil {
			t.Fatal(err)
		}
		if prog != nil {
			out = append(out, named{filepath.Base(path), prog})
		}
	}
	for _, tp := range []struct {
		seed           uint64
		blocks, fields int
	}{{1, 12, 9}, {2, 30, 14}, {3, 40, 150}} {
		out = append(out, named{fmt.Sprintf("tangled-%d", tp.seed), tangled(t, tp.seed, tp.blocks, tp.fields)})
	}
	return out
}

// tangled builds a chain of blocks — a table, or a conditional diamond with
// a table on each arm — whose keys, action operands, destinations and
// branch conditions draw from a pool of fields numbered in shuffled order,
// so a field's first appearance says nothing about its place by name.
func tangled(t *testing.T, seed uint64, blocks, fields int) *p4ir.Program {
	t.Helper()
	rng := stats.NewRNG(seed)
	pool := make([]string, fields)
	for i := range pool {
		pool[i] = fmt.Sprintf("meta.f%03d", i)
	}
	pool[0], pool[1] = "ipv4.ttl", "tcp.dport" // parser-initialized readers too
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	field := func() string { return pool[rng.Intn(len(pool))] }
	b := p4ir.NewBuilder(fmt.Sprintf("tangled-%d", seed))
	n := 0
	table := func(next string) string {
		n++
		spec := p4ir.TableSpec{Name: fmt.Sprintf("t%02d", n), Next: next, DefaultAction: "miss"}
		for range rng.Intn(3) {
			spec.Keys = append(spec.Keys, p4ir.Key{Field: field(), Kind: p4ir.MatchExact, Width: 16})
		}
		var prims []p4ir.Primitive
		for range 1 + rng.Intn(3) {
			if rng.Intn(2) == 0 {
				prims = append(prims, p4ir.Prim("modify_field", field(), field()))
			} else {
				prims = append(prims, p4ir.Prim("add", field(), field(), "1"))
			}
		}
		spec.Actions = []*p4ir.Action{p4ir.NewAction("act", prims...), p4ir.NoopAction("miss")}
		b.Table(spec)
		return spec.Name
	}
	// Built back to front, so every node names an existing successor.
	next := ""
	for i := blocks; i > 0; i-- {
		if rng.Intn(3) > 0 {
			next = table(next)
			continue
		}
		f, g := field(), field()
		cond := fmt.Sprintf("c%02d", i)
		b.Cond(cond, fmt.Sprintf("%s > %d", f, rng.Intn(100)), table(next), table(next), f, g)
		next = cond
	}
	b.Root(next)
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if sd := prog.StructuralDiagnostics(); sd.HasErrors() {
		t.Fatalf("tangled-%d: %v", seed, sd)
	}
	return prog
}

// TestEdgesGolden pins NewRewriteChecker's full classified edge list —
// every u→v dependency of each program, its kind and its witness field —
// and the program's Lint text to what the map-based field sets produced. The bitset numbering of
// fields must reproduce it byte for byte, the witness (the
// lexicographically first common field) included.
// `go test ./internal/analysis -run TestEdgesGolden -update-golden`
// rewrites it.
func TestEdgesGolden(t *testing.T) {
	var w strings.Builder
	for _, p := range edgePrograms(t) {
		lines := analysis.NewRewriteChecker(p.prog).EdgeLines()
		fmt.Fprintf(&w, "== %s: %d edges\n", p.name, len(lines))
		for _, l := range lines {
			fmt.Fprintf(&w, "%s\n", l)
		}
		lint := analysis.Lint(p.prog)
		fmt.Fprintf(&w, "== %s: %d lint diagnostics\n", p.name, len(lint))
		for _, d := range lint {
			fmt.Fprintf(&w, "%s\n", d)
		}
	}
	got := w.String()
	if *updateDeepGolden {
		if err := os.WriteFile(edgesGoldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(edgesGoldenFile)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("edge list differs from %s at line %d:\n got: %s\nwant: %s", edgesGoldenFile, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("edge list differs from %s in length: %d lines, want %d", edgesGoldenFile, len(gl), len(wl))
	}
}
