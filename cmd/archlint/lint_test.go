package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
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
		// The emulator may not consult a fault injector of its own.
		"internal/nicsim/faults.go": `package nicsim

import _ "pipeleon/internal/faultinject"
`,
	})
	vs, err := lintModule(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 {
		t.Fatalf("got %d violations, want 2 (test file exempt): %v", len(vs), vs)
	}
	for i, file := range []string{"internal/core/bad.go", "internal/nicsim/faults.go"} {
		if vs[i].Rule != "layering" || !strings.HasSuffix(vs[i].Pos.Filename, file) {
			t.Fatalf("violation %d: %v, want layering in %s", i, vs[i], file)
		}
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

func legacy(prof profile) { prof.ActionProb(nil); prof.BranchProb("c") }
`,
		// The runtime reads the round's profile through the session's view,
		// never on its own — change detection used to.
		"internal/core/runtime.go": `package core

func signature(prof profile) {
	prof.ReachProbs(nil)
	for range prof.ActionProb(nil) {
	}
	prof.BranchProb("c")
}
`,
		"internal/core/change_test.go": `package core

func oracle(prof profile) { prof.BranchProb("c") }
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

func cond(pm params) float64 { return pm.CondLatency() + pm.Kernel().Mat }
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
		// The root façade is no exception.
		"pipeleon.go": `package pipeleon

import "pipeleon/internal/analysis"

var VerifyRewrite, VerifySemantics = analysis.VerifyRewrite, analysis.VerifySemantics
`,
		// Exempt: tests, a nested module.
		"internal/opt/oracle_test.go": `package opt

import "pipeleon/internal/analysis"

var _ = analysis.VerifyRewrite
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
	if len(vs) != 6 || got["sweep.go"] != 1 || got["server.go"] != 2 || got["main.go"] != 1 || got["pipeleon.go"] != 2 {
		t.Fatalf("got %v, want one violation in sweep.go, two in server.go, one in main.go, two in pipeleon.go", vs)
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
	MemoryBudget int
	EnableCache  bool    // set only by a test
	HitRateAlpha float64 // set only by the bench/ module
	MaxCombos    int     // only read elsewhere
	workers      int
}

func DefaultConfig() Config { return Config{TopKFrac: 0.2, MergeCap: 2, EnableCache: true, HitRateAlpha: 0.5, MaxCombos: 256} }
`,
		// A command's flags: a flag.Var binding by address, and a flag's
		// value assigned through a selector.
		"cmd/tool/main.go": `package main

import (
	"flag"

	"pipeleon/internal/opt"
)

func main() {
	cfg := opt.DefaultConfig()
	flag.Float64Var(&cfg.TopKFrac, "topk", 0.2, "")
	budget := flag.Int("mem", 0, "")
	flag.Parse()
	cfg.MemoryBudget = *budget
}
`,
		// A literal in the package.
		"internal/opt/sweep.go": `package opt

var merged = Config{MergeCap: 4}
`,
		// A test file is no setter, in the module or in bench/.
		"internal/core/runtime_test.go": `package core

import o "pipeleon/internal/opt"

var _ = o.Config{EnableCache: true}
`,
		"internal/opt/group.go": `package opt

func combos(cfg Config) int { n := cfg.MaxCombos; return n }
`,
		// The bench/ module's non-test code drives the program from
		// outside: its assignment is a setter.
		"bench/go.mod": "module bench\n",
		"bench/rig.go": `package main

import "pipeleon/internal/opt"

func rig(cfg *opt.Config) { cfg.HitRateAlpha = 1 }
`,
		"bench/rig_test.go": `package main

import "pipeleon/internal/opt"

func rigT(cfg *opt.Config) { cfg.EnableCache = false; cfg.MaxCombos = 1 }
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
	if want := []string{"Config.EnableCache", "Config.MaxCombos"}; !slices.Equal(got, want) {
		t.Fatalf("got %v, want %v unset", vs, want)
	}
	if !strings.Contains(vs[0].Msg, "export_test.go") {
		t.Errorf("message does not say where a test's value goes: %q", vs[0].Msg)
	}
}

// A nested selector sets every field it names: cl.Retry.MaxAttempts = n
// sets Client.Retry as well as RetryPolicy.MaxAttempts.
func TestNestedSelectorSetsEachField(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/controlplane/client.go": `package controlplane

type RetryPolicy struct {
	MaxAttempts int
	MaxBackoff  int
}

type Client struct {
	Retry   RetryPolicy
	Timeout int
}
`,
		"cmd/p4cctl/main.go": `package main

import "pipeleon/internal/controlplane"

func tune(cl *controlplane.Client, n int) { cl.Retry.MaxAttempts = n }
`,
	})
	vs, err := lintModule(root)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, v := range vs {
		got = append(got, v.Msg[:strings.Index(v.Msg, " ")])
	}
	if want := []string{"RetryPolicy.MaxBackoff", "Client.Timeout"}; !slices.Equal(got, want) {
		t.Fatalf("got %v, want %v unset", vs, want)
	}
}

// Every struct the live-knob rule lists is where the list says: a rename or
// a move must update the list, not take the struct out of the rule.
func TestEveryKnobStructExists(t *testing.T) {
	for _, k := range knobs {
		f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("../..", k.file), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if o := f.Scope.Lookup(k.typ); o == nil || o.Kind != ast.Typ {
			t.Errorf("%s declares no type %s", k.file, k.typ)
		}
	}
}

func TestFleetPlansThroughTheRuntime(t *testing.T) {
	root := writeTree(t, map[string]string{
		// A second round: a session built, searched and materialized; a
		// method value counts.
		"internal/fleet/plan.go": `package fleet

import "pipeleon/internal/opt"

func plan(pm params, cfg opt.Config) {
	s, _ := opt.NewSession(nil, pm, cfg)
	s.SearchAndApply(nil)
	res, _ := s.Search(nil)
	apply := s.Materialize
	_, _ = apply(res.Plan)
}
`,
		"internal/fleet/alias.go": `package fleet

import o "pipeleon/internal/opt"

func build() { o.NewSession(nil, nil, o.Config{}) }
`,
		// Driving a Runtime and reading the optimizer's config are fine.
		"internal/fleet/rollout.go": `package fleet

import "pipeleon/internal/opt"

func round(rt runtime) { rt.SetDeployGuard(guard{}); rt.OptimizeOnce(0); _ = opt.DefaultConfig() }
`,
		"internal/fleet/plan_test.go": `package fleet

import "pipeleon/internal/opt"

func oracle() { s, _ := opt.NewSession(nil, nil, opt.Config{}); s.Search(nil) }
`,
		// The runtime owns the round and its session.
		"internal/core/runtime.go": `package core

import "pipeleon/internal/opt"

func build() { s, _ := opt.NewSession(nil, nil, opt.Config{}); s.Search(nil); s.Materialize(nil) }
`,
	})
	vs, err := lintModule(root)
	if err != nil {
		t.Fatal(err)
	}
	perFile := map[string]int{}
	for _, v := range vs {
		if v.Rule != "one-round" {
			t.Errorf("unexpected violation: %v", v)
		}
		perFile[filepath.Base(v.Pos.Filename)]++
	}
	// plan.go: NewSession, SearchAndApply, Search, Materialize; alias.go: NewSession.
	if len(vs) != 5 || perFile["plan.go"] != 4 || perFile["alias.go"] != 1 {
		t.Fatalf("got %v, want 4 in plan.go and 1 in alias.go: %v", perFile, vs)
	}
	if !strings.Contains(vs[0].Msg, "core.Runtime") {
		t.Errorf("message does not say what to use instead: %q", vs[0].Msg)
	}
}

func TestOneDeploy(t *testing.T) {
	root := writeTree(t, map[string]string{
		// The one deploy path.
		"internal/core/deploy.go": `package core

func (r *Runtime) deployLocked() error {
	if err := r.tgt.Deploy(nil); err != nil {
		return r.tgt.Rollback()
	}
	return nil
}

func (r *Runtime) commitLocked() error { return r.tgt.Commit() }
`,
		// A second path: an entry operation staging and resolving its own
		// deploy; a method value counts.
		"internal/core/apimap.go": `package core

func (r *Runtime) redeployLocked() error {
	if err := r.tgt.Deploy(nil); err != nil {
		return err
	}
	if err := r.tgt.Commit(); err != nil {
		return r.tgt.Rollback()
	}
	return nil
}
`,
		"internal/core/runtime.go": `package core

func (r *Runtime) round() error { commit := r.tgt.Commit; return commit() }
`,
		// Tests and other packages may drive a target directly.
		"internal/core/deploy_test.go": `package core

func stage(r *Runtime) { r.tgt.Deploy(nil); r.tgt.Commit() }
`,
		"internal/fleet/rollout.go": `package fleet

func push(d *device) { d.tgt.Deploy(nil); d.tgt.Commit() }
`,
	})
	vs, err := lintModule(root)
	if err != nil {
		t.Fatal(err)
	}
	perFile := map[string]int{}
	for _, v := range vs {
		if v.Rule != "one-deploy" {
			t.Errorf("unexpected violation: %v", v)
		}
		perFile[filepath.Base(v.Pos.Filename)]++
	}
	if len(vs) != 4 || perFile["apimap.go"] != 3 || perFile["runtime.go"] != 1 {
		t.Fatalf("got %v, want 3 in apimap.go and 1 in runtime.go: %v", perFile, vs)
	}
	if !strings.Contains(vs[0].Msg, "deploy.go") {
		t.Errorf("message does not say where deploys belong: %q", vs[0].Msg)
	}
}

func TestOneExit(t *testing.T) {
	root := writeTree(t, map[string]string{
		// The one exit: every policy action from finishLocked.
		"internal/core/round.go": `package core

func (r *Runtime) finishLocked(failed bool) {
	if failed {
		r.noteDeployFailureLocked()
		r.blacklistLocked("")
	}
	r.recordLocked()
}
`,
		// A second exit: a stage recording its own round, and a policy
		// action as a method value and in a package-level initializer.
		"internal/core/runtime.go": `package core

func (r *Runtime) searchStage() {
	r.recordLocked()
}

func (r *Runtime) judge() func() { return r.noteDeployFailureLocked }

var sweep = func(r *Runtime) { r.blacklistLocked("") }
`,
		// Tests and other packages may call them.
		"internal/core/round_test.go": `package core

func record(r *Runtime) { r.recordLocked() }
`,
		"internal/fleet/device.go": `package fleet

func fail(d *device) { d.noteDeployFailureLocked() }
`,
	})
	vs, err := lintModule(root)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, v := range vs {
		if v.Rule != "one-exit" || filepath.Base(v.Pos.Filename) != "runtime.go" {
			t.Errorf("unexpected violation: %v", v)
		}
		names = append(names, v.Msg[len("uses "):strings.Index(v.Msg, " outside")])
	}
	if want := []string{"recordLocked", "noteDeployFailureLocked", "blacklistLocked"}; !slices.Equal(names, want) {
		t.Fatalf("flagged %v, want %v: %v", names, want, vs)
	}
	if !strings.Contains(vs[0].Msg, "finishLocked") {
		t.Errorf("message does not say where round policy belongs: %q", vs[0].Msg)
	}
}

func TestEveryKnobStructIsChecked(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/nicsim/nic.go": `package nicsim

type Config struct {
	Seed     uint64
	MaxSteps int
}

func defaults() Config { return Config{MaxSteps: 64} }
`,
		"internal/core/guard.go": `package core

type DeployGuard struct {
	VerifyPackets      int
	MinPredictedGainNs float64
}
`,
		// Set outside its own file: Seed and VerifyPackets are live.
		"cmd/nicd/main.go": `package main

import (
	"pipeleon/internal/core"
	"pipeleon/internal/nicsim"
)

var cfg = nicsim.Config{Seed: 1}

func guard(g *core.DeployGuard) { g.VerifyPackets = 8 }
`,
	})
	vs, err := lintModule(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 || vs[0].Rule != "live-knob" || !strings.HasPrefix(vs[0].Msg, "DeployGuard.MinPredictedGainNs ") ||
		vs[1].Rule != "live-knob" || !strings.HasPrefix(vs[1].Msg, "Config.MaxSteps ") {
		t.Fatalf("got %v, want DeployGuard.MinPredictedGainNs and Config.MaxSteps unset", vs)
	}
}

func TestOneDecoder(t *testing.T) {
	root := writeTree(t, map[string]string{
		// Second readings of the IR's language: a switch and a comparison
		// on the op, and two reads of the expression.
		"internal/nicsim/compiled.go": `package nicsim

import "strings"

func kind(p prim, c *cond) int {
	switch p.Op {
	case "drop":
		return 1
	}
	if "forward" == p.Op {
		return 2
	}
	if strings.HasPrefix(c.Expr, "valid(") {
		return 3
	}
	if cfg.Op == "drop" || strings.HasPrefix(prog.Expr, "valid(") {
		return 4
	}
	return parse(c.Expr)
}
`,
		// Package-level values another file declares: per-file parsing
		// leaves them unresolved, and they are values all the same.
		"internal/nicsim/vars.go": `package nicsim

var (
	cfg  prim
	prog cond
)
`,
		// Fine: ops compared to each other, the expression in a message, a
		// package's Expr type, and a test file.
		"internal/analysis/deep.go": `package analysis

import (
	"fmt"
	"go/ast"
)

func same(p, q prim) bool { return p.Op == q.Op }

func decoded(p prim) int { return p.Decode() }

func msg(l *list, c *cond, e ast.Expr) error {
	l.Add("PL203", c.Expr)
	return fmt.Errorf("bad %q", c.Expr)
}
`,
		"internal/analysis/deep_test.go": `package analysis

func oracle(p prim) bool { return p.Op == "drop" }
`,
		// The decoder itself and the frontend that emits the language.
		"internal/p4ir/decode.go": `package p4ir

func (p Primitive) Decode() int { if p.Op == "drop" { return 1 }; return len(c.Expr) }
`,
		"internal/p4c/lower.go": `package p4c

func lower(s stmt) bool { return s.Op == "==" }
`,
	})
	vs, err := lintModule(root)
	if err != nil {
		t.Fatal(err)
	}
	var lines []int
	for _, v := range vs {
		if v.Rule != "one-decoder" || filepath.Base(v.Pos.Filename) != "compiled.go" {
			t.Errorf("unexpected violation: %v", v)
		}
		lines = append(lines, v.Pos.Line)
	}
	if !slices.Equal(lines, []int{6, 10, 13, 16, 16, 19}) {
		t.Fatalf("got violations at lines %v, want 6, 10, 13, 16, 16, 19: %v", lines, vs)
	}
	if !strings.Contains(vs[0].Msg, "Primitive.Decode") {
		t.Errorf("message does not say what to use instead: %q", vs[0].Msg)
	}
}

func TestOneIndex(t *testing.T) {
	root := writeTree(t, map[string]string{
		// A private numbering: a walk of its own, a name list, and two
		// name→position maps.
		"internal/nicsim/plan.go": `package nicsim

func compile(prog *program) map[string]int32 {
	order, _ := prog.TopoOrder()
	ids := map[string]int32{}
	for i, name := range prog.NodeNames() {
		ids[name] = int32(i)
	}
	pos := map[string]int{}
	for i, n := range order {
		pos[n] = i
	}
	return ids
}
`,
		"cmd/tool/main.go": `package main

func main() { _ = prog.NodeNames() }
`,
		// Fine: positions stored under something else, an index's names,
		// a test file, the index itself, the frontend and the examples.
		"internal/analysis/graph.go": `package analysis

func fine(ix *index, groups []group) map[string]int {
	by := map[string]int{}
	for i, g := range groups {
		by[g.Branch] = i
	}
	for id, name := range ix.Names() {
		by[name] += id
	}
	return by
}
`,
		"internal/opt/golden_test.go": `package opt

func oracle(p *program) { p.TopoOrder() }
`,
		"internal/p4ir/ir.go": `package p4ir

func (p *Program) TopoOrder() []string { return p.NodeNames() }
`,
		"internal/p4c/lower.go": `package p4c

func lower(params []string) map[string]int {
	idx := map[string]int{}
	for i, p := range params {
		idx[p] = i
	}
	return idx
}
`,
		"examples/route/main.go": `package main

func main() { prog.TopoOrder() }
`,
	})
	vs, err := lintModule(root)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, v := range vs {
		if v.Rule != "one-index" {
			t.Errorf("unexpected violation: %v", v)
		}
		got = append(got, fmt.Sprintf("%s:%d", filepath.Base(v.Pos.Filename), v.Pos.Line))
	}
	if want := []string{"main.go:3", "plan.go:4", "plan.go:6", "plan.go:7", "plan.go:11"}; !slices.Equal(got, want) {
		t.Fatalf("got violations at %v, want %v: %v", got, want, vs)
	}
	if !strings.Contains(vs[0].Msg, "p4ir.Index") {
		t.Errorf("message does not say what to use instead: %q", vs[0].Msg)
	}
}

func TestOneEntryWriter(t *testing.T) {
	root := writeTree(t, map[string]string{
		// Uncounted writes: a splice, an append kept elsewhere, an element,
		// an element's field, an increment.
		"internal/core/apimap.go": `package core

func undo(t *table, i int, e entry) {
	t.Entries = splice(t.Entries, i)
	grown := append(t.Entries, e)
	t.Entries[i] = e
	prog.Tables["x"].Entries[i].Args = nil
	t.Entries[i].Priority++
	_ = grown
}
`,
		// The emulator has no allowance outside load: not even a bulk install.
		"internal/nicsim/control.go": `package nicsim

func (n *NIC) replaceEntries(t *table, fresh []entry) { t.Entries = fresh }

func (n *NIC) insertEntry(t *table, e entry) { t.Entries = append(t.Entries, e) }
`,
		// A program's actions are its clones' too: a new primitive list,
		// an operand, an appended primitive.
		"internal/opt/verify.go": `package opt

func edit(t *table, a *action, p prim) {
	t.Actions[0].Primitives = nil
	a.Primitives[0].Args[1] = "x"
	a.Primitives = append(a.Primitives, p)
}
`,
		// Fine: reads, a test file, p4ir itself, allowlisted builders of
		// entries and of actions, and the allowlisted merge of opt's rewrite.
		"internal/analysis/lint.go": `package analysis

func read(t *table) int {
	es := t.Entries
	n := len(t.Entries) + len(es) + len(t.Actions[0].Primitives)
	for i := range t.Entries {
		n += t.Entries[i].Priority
	}
	return n
}
`,
		"internal/experiments/fig12.go": `package experiments

func counterBenchProgram(ts *spec, prims []prim) { ts.Actions[0].Primitives = prims }
`,
		"internal/core/apimap_test.go": `package core

func fill(t *table, e entry) { t.Entries = append(t.Entries, e) }
`,
		"internal/p4ir/ir.go": `package p4ir

func (t *Table) insertEntry(e Entry) { t.Entries = append(t.Entries, e) }
`,
		"internal/synth/synth.go": `package synth

func spec(ts *TableSpec) { ts.Entries = entries() }
`,
		"internal/opt/rewrite.go": `package opt

func buildInPlaceMerge(mt *table, e entry) { mt.Entries = append(mt.Entries, e) }

func applyOption(t *table) { t.Entries = nil }
`,
	})
	vs, err := lintModule(root)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, v := range vs {
		if v.Rule != "one-entry-writer" {
			t.Errorf("unexpected violation: %v", v)
		}
		got = append(got, fmt.Sprintf("%s:%d", filepath.Base(v.Pos.Filename), v.Pos.Line))
	}
	want := []string{"apimap.go:4", "apimap.go:5", "apimap.go:6", "apimap.go:7", "apimap.go:8", "control.go:3", "control.go:5", "control.go:5", "rewrite.go:5",
		"verify.go:4", "verify.go:5", "verify.go:6", "verify.go:6"}
	if !slices.Equal(got, want) {
		t.Fatalf("got violations at %v, want %v: %v", got, want, vs)
	}
	if !strings.Contains(vs[0].Msg, "Program.InsertEntry") || !strings.Contains(vs[len(vs)-1].Msg, "new action") {
		t.Errorf("messages do not say what to do instead: %q, %q", vs[0].Msg, vs[len(vs)-1].Msg)
	}
}

func TestDeadExport(t *testing.T) {
	root := writeTree(t, map[string]string{
		// Flagged: nobody calls it, only its own file does, only a test does,
		// only another package's function of the same name is called.
		// Fine: a call from another package, through an aliased import, from
		// the same package's other file, from bench/ alone, a method called
		// only through an interface, and a method of an unexported type.
		"internal/opt/plan.go": `package opt

func Nobody() {}

func OwnFile() int { return 1 }

func TestOnly() {}

func Called() int { return OwnFile() }

func SamePackage() {}

func BenchOnly() {}

type Plan struct{}

func (Plan) Size() int { return 0 }

type plan struct{}

func (plan) Grow() {}

func Parse() {}

func Aliased() {}
`,
		"internal/opt/search.go": `package opt

type sized interface{ Size() int }

func search(s sized) int { SamePackage(); return s.Size() }
`,
		"internal/opt/plan_test.go": `package opt

func use() { TestOnly() }
`,
		"internal/core/runtime.go": `package core

import (
	"flag"

	"pipeleon/internal/opt"
)

func round() int { flag.Parse(); return opt.Called() }
`,
		"internal/fleet/rollout.go": `package fleet

import o "pipeleon/internal/opt"

func rollout() { o.Aliased() }
`,
		"bench/go.mod": "module bench\n",
		"bench/main.go": `package main

import "pipeleon/internal/opt"

func main() { opt.BenchOnly() }
`,
		// Fine: an allowlisted method, and code outside internal/.
		"internal/diag/diag.go": `package diag

type Severity int

func (s Severity) MarshalText() ([]byte, error) { return nil, nil }
`,
		"cmd/tool/main.go": `package main

func Exported() {}

func main() {}
`,
	})
	vs, err := lintModule(root)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, v := range vs {
		if v.Rule != "dead-export" || filepath.Base(v.Pos.Filename) != "plan.go" {
			t.Errorf("unexpected violation: %v", v)
		}
		got = append(got, fmt.Sprintf("%d", v.Pos.Line))
	}
	if want := []string{"3", "5", "7", "23"}; !slices.Equal(got, want) {
		t.Fatalf("got violations at lines %v, want %v: %v", got, want, vs)
	}
	if !strings.HasPrefix(vs[0].Msg, "opt.Nobody ") || !strings.Contains(vs[0].Msg, "delete it") {
		t.Errorf("message does not name the function and what to do: %q", vs[0].Msg)
	}
}

// Every exception to dead-export says why it is kept.
func TestOneCheck(t *testing.T) {
	root := writeTree(t, map[string]string{
		// Consumers checking a program they were handed: a runtime, a gate,
		// a device's swap (New beside it receives the caller's program).
		"internal/core/runtime.go":  "package core\n\nfunc NewRuntime(orig *Program) error { return orig.Validate() }\n",
		"internal/analysis/gate.go": "package analysis\n\nfunc (g *Gate) check(c *Program) bool { return c.StructuralDiagnostics().HasErrors() }\n",
		"internal/nicsim/nic.go":    "package nicsim\n\nfunc New(p *Program) error { return p.Validate() }\n\nfunc (n *NIC) load(p *Program) error { return p.Validate() }\n",
		// Fine: p4ir's makers, an allowlisted maker and a test file.
		"internal/p4ir/binary.go":       "package p4ir\n\nfunc DecodeBinary(p *Program) error { return p.Validate() }\n",
		"internal/opt/rewrite.go":       "package opt\n\nfunc Apply(out *Program) error { return out.Validate() }\n",
		"internal/core/runtime_test.go": "package core\n\nfunc valid(p *Program) bool { return p.Validate() == nil }\n",
	})
	vs, err := lintModule(root)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	vs = slices.DeleteFunc(vs, func(v Violation) bool { return v.Rule != "one-check" }) // the tree's exports are dead
	for _, v := range vs {
		got = append(got, fmt.Sprintf("%s:%d", filepath.Base(v.Pos.Filename), v.Pos.Line))
	}
	if want := []string{"gate.go:3", "runtime.go:3", "nic.go:5"}; !slices.Equal(got, want) {
		t.Fatalf("got violations at %v, want %v: %v", got, want, vs)
	}
	if !strings.Contains(vs[0].Msg, "oneCheckers") {
		t.Errorf("message does not say who checks: %q", vs[0].Msg)
	}
	for c, why := range oneCheckers {
		if strings.TrimSpace(why) == "" {
			t.Errorf("oneCheckers entry %q gives no reason", c)
		}
	}
}

func TestDeadExportAllowlistGivesReasons(t *testing.T) {
	for _, a := range deadExportAllowed {
		if a.pkg == "" || a.name == "" || strings.TrimSpace(a.why) == "" {
			t.Errorf("allowlist entry %+v lacks a package, a name or a reason", a)
		}
	}
}
