package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree materializes a fake module layout under a temp dir.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, src := range files {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestLayeringViolation(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/core/bad.go": `package core

import _ "pipeleon/internal/nicsim"
`,
		"internal/core/bad_test.go": `package core

import _ "pipeleon/internal/nicsim"
`,
	})
	vs, err := lintModule(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 {
		t.Fatalf("got %d violations, want 1 (test file exempt): %v", len(vs), vs)
	}
	if vs[0].Rule != "layering" || !strings.HasSuffix(vs[0].Pos.Filename, "bad.go") {
		t.Fatalf("unexpected violation: %v", vs[0])
	}
}

func TestDeterminismViolations(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/nicsim/clock.go": `package nicsim

import "time"

func now() time.Time { return time.Now() }
`,
		"internal/nicsim/rng.go": `package nicsim

import "math/rand"

func roll() int { return rand.Int() }
`,
		// Aliased time import must still be caught.
		"internal/nicsim/alias.go": `package nicsim

import clk "time"

func now2() clk.Time { return clk.Now() }
`,
		// A local variable named time is not the package.
		"internal/nicsim/shadow.go": `package nicsim

import "time"

type ticker struct{ Now func() time.Time }

func use(time ticker) { _ = time.Now() }
`,
		// time usage without Now is fine.
		"internal/nicsim/ok.go": `package nicsim

import "time"

func span(a, b time.Time) time.Duration { return b.Sub(a) }
`,
		"internal/nicsim/ok_test.go": `package nicsim

import "time"

var t0 = time.Now()
`,
	})
	vs, err := lintModule(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 3 {
		t.Fatalf("got %d violations, want 3: %v", len(vs), vs)
	}
	byFile := map[string]string{}
	for _, v := range vs {
		if v.Rule != "determinism" {
			t.Errorf("unexpected rule %q: %v", v.Rule, v)
		}
		byFile[filepath.Base(v.Pos.Filename)] = v.Msg
	}
	if !strings.Contains(byFile["clock.go"], "time.Now") {
		t.Errorf("clock.go: %q", byFile["clock.go"])
	}
	if !strings.Contains(byFile["rng.go"], "math/rand") {
		t.Errorf("rng.go: %q", byFile["rng.go"])
	}
	if !strings.Contains(byFile["alias.go"], "time.Now") {
		t.Errorf("alias.go: %q", byFile["alias.go"])
	}
}

func TestTargetRuleOnlyCoversReplayRecordFiles(t *testing.T) {
	root := writeTree(t, map[string]string{
		// local.go may use the wall clock (live device measurements).
		"internal/target/local.go": `package target

import "time"

var t0 = time.Now()
`,
		"internal/target/replay.go": `package target

import "time"

var t1 = time.Now()
`,
	})
	vs, err := lintModule(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || !strings.HasSuffix(vs[0].Pos.Filename, "replay.go") {
		t.Fatalf("got %v, want exactly one violation in replay.go", vs)
	}
}

func TestTierNameViolations(t *testing.T) {
	root := writeTree(t, map[string]string{
		// Concrete tier name in opt: violation.
		"internal/opt/bad.go": `package opt

import "pipeleon/internal/costmodel"

var d = costmodel.TierOffPath
`,
		// Aliased import must still be caught.
		"internal/opt/alias.go": `package opt

import cm "pipeleon/internal/costmodel"

var e = cm.TierNICCPU
`,
		// Generic tier iteration is fine.
		"internal/opt/ok.go": `package opt

import "pipeleon/internal/costmodel"

func tiers(pm costmodel.Params) []costmodel.TierID {
	var out []costmodel.TierID
	for t := 0; t < pm.NumTiers(); t++ {
		out = append(out, costmodel.TierID(t))
	}
	return out
}
`,
		// Tests are exempt.
		"internal/opt/bad_test.go": `package opt

import "pipeleon/internal/costmodel"

var f = costmodel.TierASIC
`,
		// Other packages are not covered by the rule.
		"internal/nicsim/free.go": `package nicsim

import "pipeleon/internal/costmodel"

var g = costmodel.TierOffPath
`,
	})
	vs, err := lintModule(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 {
		t.Fatalf("got %d violations, want 2: %v", len(vs), vs)
	}
	byFile := map[string]string{}
	for _, v := range vs {
		if v.Rule != "tier-generic" {
			t.Errorf("unexpected rule %q: %v", v.Rule, v)
		}
		byFile[filepath.Base(v.Pos.Filename)] = v.Msg
	}
	if !strings.Contains(byFile["bad.go"], "costmodel.TierOffPath") {
		t.Errorf("bad.go: %q", byFile["bad.go"])
	}
	if !strings.Contains(byFile["alias.go"], "cm.TierNICCPU") {
		t.Errorf("alias.go: %q", byFile["alias.go"])
	}
}

func TestDiagCodeViolations(t *testing.T) {
	root := writeTree(t, map[string]string{
		// PL900 documented + unique: clean. PL901 undocumented. PL902
		// declared twice. Non-const literals and testdata are ignored.
		"internal/analysis/codes.go": `package analysis

const (
	CodeFine  = "PL900"
	CodeNoDoc = "PL901"
	CodeDup   = "PL902"
)
`,
		"internal/other/dup.go": `package other

const CodeAgain = "PL902"
`,
		"internal/other/usage.go": `package other

func use() string { return "PL900" }
`,
		"internal/other/testdata/fake.go": `package fake

const CodeHidden = "PL999"
`,
		"internal/other/codes_test.go": `package other

const CodeTestOnly = "PL998"
`,
		"DESIGN.md": "| `PL900` | warn | a documented code |\n| `PL902` | warn | the duplicated one |\n",
	})
	vs, err := lintModule(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 {
		t.Fatalf("got %d violations, want 2: %v", len(vs), vs)
	}
	for _, v := range vs {
		if v.Rule != "diag-code" {
			t.Errorf("unexpected rule %q: %v", v.Rule, v)
		}
	}
	byCode := map[string]string{}
	for _, v := range vs {
		for _, code := range []string{"PL901", "PL902"} {
			if strings.Contains(v.Msg, code) {
				byCode[code] = v.Msg
			}
		}
	}
	if !strings.Contains(byCode["PL901"], "DESIGN.md") {
		t.Errorf("PL901: %q, want missing-documentation violation", byCode["PL901"])
	}
	if !strings.Contains(byCode["PL902"], "already declared") {
		t.Errorf("PL902: %q, want duplicate-declaration violation", byCode["PL902"])
	}
}

func TestMissingDirsAreNotErrors(t *testing.T) {
	vs, err := lintModule(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("empty module produced violations: %v", vs)
	}
}

// The real repo must be clean — this is the same check `make lint` runs.
func TestRepoIsClean(t *testing.T) {
	vs, err := lintModule("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vs {
		t.Errorf("%s", v)
	}
}

func TestCostDerivationOnlyInTheViewFile(t *testing.T) {
	root := writeTree(t, map[string]string{
		// The view's own file may read the profile and the cost model.
		"internal/opt/estimate.go": `package opt

func build(prof profile, pm params) { prof.ReachProbs(nil); prof.ActionProb(nil); pm.NodeLatency(nil, nil, "") }
`,
		// Any other file of the package may not.
		"internal/opt/hetero.go": `package opt

func walk(prof profile, pm params) float64 {
	reach := prof.ReachProbs(nil)
	return reach["t"] * pm.TableLatency(nil, prof.ActionProb(nil))
}
`,
		// Naming a quantity without calling the deriving method is fine.
		"internal/opt/ok.go": `package opt

type Costs struct{ DropProb, BranchProb float64 }

func read(c Costs) float64 { return c.DropProb + c.BranchProb }
`,
		"internal/opt/oracle_test.go": `package opt

func legacy(prof profile) { prof.DropProb(nil); prof.BranchProb("c") }
`,
		// The runtime reads the round's profile through the session's view,
		// never on its own — change detection used to.
		"internal/core/runtime.go": `package core

func signature(prof profile) {
	prof.ReachProbs(nil)
	for range prof.ActionProb(nil) {
	}
	prof.DropProb(nil)
}
`,
		"internal/core/change_test.go": `package core

func oracle(prof profile) { prof.DropProb(nil) }
`,
		// Other packages define and use these freely.
		"internal/pipelet/rank.go": `package pipelet

func rank(prof profile) { prof.ReachProbs(nil) }
`,
	})
	vs, err := lintModule(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 6 {
		t.Fatalf("got %d violations, want 6: %v", len(vs), vs)
	}
	perFile := map[string]int{}
	for _, v := range vs {
		if v.Rule != "one-estimator" {
			t.Errorf("unexpected violation: %v", v)
		}
		perFile[filepath.Base(v.Pos.Filename)]++
	}
	if perFile["hetero.go"] != 3 || perFile["runtime.go"] != 3 {
		t.Errorf("violations per file %v, want 3 in hetero.go and 3 in runtime.go", perFile)
	}
}

func TestSearchIsSerial(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/opt/search.go": `package opt

import (
	"sync"
	"sync/atomic"
)

func runIndexed(n int, f func(int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); f(int(next.Add(1))) }()
	wg.Wait()
}
`,
		"internal/opt/estimate.go": `package opt

import s "sync"

var pool = s.Pool{}

type view struct{ once s.Once }
`,
		// The session's mutex is what its callers share it through.
		"internal/opt/session.go": `package opt

import "sync"

type Session struct{ mu sync.Mutex }

type local struct{ Once, Pool int }

func (l local) ok() int { var sync local; return sync.Once + sync.Pool }
`,
		"internal/opt/stress_test.go": `package opt

import "sync"

func hammer() { var wg sync.WaitGroup; wg.Add(1); go wg.Done(); wg.Wait() }
`,
		// Other packages fan out freely.
		"internal/nicsim/measure.go": `package nicsim

import "sync"

func measure() { var wg sync.WaitGroup; wg.Add(1); go wg.Done(); wg.Wait() }
`,
	})
	vs, err := lintModule(root)
	if err != nil {
		t.Fatal(err)
	}
	perFile := map[string]int{}
	for _, v := range vs {
		if v.Rule != "serial-search" {
			t.Errorf("unexpected violation: %v", v)
		}
		perFile[filepath.Base(v.Pos.Filename)]++
	}
	// search.go: the import, the WaitGroup, the go statement; estimate.go:
	// the Pool and the Once under an aliased import.
	if len(vs) != 5 || perFile["search.go"] != 3 || perFile["estimate.go"] != 2 {
		t.Fatalf("got %v, want 3 in search.go and 2 in estimate.go: %v", perFile, vs)
	}
}

func TestCostsComeFromTheKernel(t *testing.T) {
	root := writeTree(t, map[string]string{
		// The emulator folding its own constants: terms, a fixed m, a tier
		// speed and a migration cost.
		"internal/nicsim/plan.go": `package nicsim

func compile(pm params) plan {
	return plan{lmat: pm.Lmat, cond: pm.CondLatency(), m: pm.LPMFixedM, speed: pm.TierSpeed(1), mig: pm.MigrationCost(0, 1)}
}
`,
		// The optimizer pricing with the parameters; a method value counts.
		"internal/opt/hetero.go": `package opt

func stall(pm params, t table) float64 {
	f := pm.TierUpdateStall
	return f(1) + pm.UpdateStallCPU*pm.CPUSlowdown + float64(t.MatchComplexity())
}
`,
		// Reading the kernel, the capacity and names that only share a prefix
		// are fine.
		"internal/opt/estimate.go": `package opt

func price(k kernel, pm params, res result) float64 {
	_, lat := k.Match(nil)
	return lat + k.Mat + k.Cond*k.Speed[1] + float64(pm.SRAMBytes+res.DMACrossings)
}
`,
		"internal/opt/oracle_test.go": `package opt

func legacy(pm params) float64 { return pm.Lmat * pm.CPUSlowdown }
`,
		// The package that defines the terms folds them; other packages are
		// not covered.
		"internal/costmodel/kernel.go": `package costmodel

func (pm Params) Kernel() Kernel { return Kernel{Mat: pm.Lmat, Cond: pm.BranchFactor * pm.Lmat} }
`,
		"internal/experiments/fig5.go": `package experiments

func cond(pm params) float64 { return pm.CondLatency() }
`,
	})
	vs, err := lintModule(root)
	if err != nil {
		t.Fatal(err)
	}
	perFile := map[string]int{}
	for _, v := range vs {
		if v.Rule != "one-kernel" {
			t.Errorf("unexpected violation: %v", v)
		}
		perFile[filepath.Base(v.Pos.Filename)]++
	}
	// plan.go: Lmat, CondLatency, LPMFixedM, TierSpeed, MigrationCost;
	// hetero.go: TierUpdateStall, UpdateStallCPU, CPUSlowdown, MatchComplexity.
	if len(vs) != 9 || perFile["plan.go"] != 5 || perFile["hetero.go"] != 4 {
		t.Fatalf("got %v, want 5 in plan.go and 4 in hetero.go: %v", perFile, vs)
	}
	if !strings.Contains(vs[0].Msg, "costmodel.Kernel") {
		t.Errorf("message does not say what to use instead: %q", vs[0].Msg)
	}
}

func TestProofPrimitivesOnlyInsideAnalysis(t *testing.T) {
	root := writeTree(t, map[string]string{
		// The package that owns the primitives composes them.
		"internal/analysis/verifier.go": `package analysis

func NewVerifier() { NewRewriteChecker(); NewSemanticChecker() }
`,
		// Anyone else builds a second pipeline: a call, an aliased import,
		// a function value.
		"internal/opt/sweep.go": `package opt

import "pipeleon/internal/analysis"

var rc = analysis.NewRewriteChecker(nil)
`,
		"internal/controlplane/server.go": `package controlplane

import an "pipeleon/internal/analysis"

func gate() { an.NewSemanticChecker(nil); check := an.VerifySemantics; _ = check }
`,
		"cmd/tool/main.go": `package main

import "pipeleon/internal/analysis"

func main() { analysis.VerifyRewrite(nil, nil) }
`,
		// Asking the verifier, linting, and a local name that merely
		// collides are all fine.
		"internal/core/vet.go": `package core

import "pipeleon/internal/analysis"

type local struct{}

func (local) VerifyRewrite() {}

func ok() { analysis.NewVerifier(nil, true); analysis.Lint(nil); var analysis local; analysis.VerifyRewrite() }
`,
		// Exempt: tests, the root façade's re-exports, a nested module.
		"internal/opt/oracle_test.go": `package opt

import "pipeleon/internal/analysis"

var _ = analysis.VerifyRewrite
`,
		"pipeleon.go": `package pipeleon

import "pipeleon/internal/analysis"

var VerifyRewrite, VerifySemantics = analysis.VerifyRewrite, analysis.VerifySemantics
`,
		"bench/go.mod": "module bench\n",
		"bench/layers.go": `package main

import "pipeleon/internal/analysis"

var _ = analysis.NewSemanticChecker
`,
	})
	vs, err := lintModule(root)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, v := range vs {
		if v.Rule != "one-verifier" {
			t.Errorf("unexpected violation: %v", v)
		}
		got[filepath.Base(v.Pos.Filename)]++
	}
	if len(vs) != 4 || got["sweep.go"] != 1 || got["server.go"] != 2 || got["main.go"] != 1 {
		t.Fatalf("got %v, want one violation in sweep.go, two in server.go, one in main.go", vs)
	}
	if !strings.Contains(vs[0].Msg, "analysis.Verifier") {
		t.Errorf("message does not say what to use instead: %q", vs[0].Msg)
	}
}

func TestEveryConfigFieldIsSetSomewhere(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/opt/config.go": `package opt

type Config struct {
	TopKFrac     float64
	MergeCap     int
	EnableCache  bool
	HitRateAlpha float64 // set nowhere but here
	MaxCombos    int     // only read elsewhere
	workers      int
}

func DefaultConfig() Config { return Config{TopKFrac: 0.2, MergeCap: 2, HitRateAlpha: 0.5, MaxCombos: 256} }
`,
		// A selector assignment, a literal in the package, a literal
		// outside it; a test file counts as a user.
		"cmd/tool/main.go": `package main

import "pipeleon/internal/opt"

func main() { cfg := opt.DefaultConfig(); cfg.TopKFrac = 1 }
`,
		"internal/opt/sweep.go": `package opt

var merged = Config{MergeCap: 4}
`,
		"internal/core/runtime_test.go": `package core

import o "pipeleon/internal/opt"

var _ = o.Config{EnableCache: true}
`,
		"internal/opt/group.go": `package opt

func combos(cfg Config) int { n := cfg.MaxCombos; return n }
`,
		// Not part of the module: a nested module's assignment.
		"bench/go.mod": "module bench\n",
		"bench/rig.go": `package main

func rig(cfg *struct{ HitRateAlpha float64 }) { cfg.HitRateAlpha = 1 }
`,
	})
	vs, err := lintModule(root)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, v := range vs {
		if v.Rule != "live-knob" || !strings.HasSuffix(v.Pos.Filename, "config.go") {
			t.Errorf("unexpected violation: %v", v)
		}
		got = append(got, v.Msg[:strings.Index(v.Msg, " ")])
	}
	if len(got) != 2 || got[0] != "Config.HitRateAlpha" || got[1] != "Config.MaxCombos" {
		t.Fatalf("got %v, want Config.HitRateAlpha and Config.MaxCombos unset", vs)
	}
}
