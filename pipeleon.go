// Package pipeleon is a from-scratch Go implementation of Pipeleon
// ("Unleashing SmartNIC Packet Processing Performance in P4", ACM SIGCOMM
// 2023): an automated, profile-guided, performance-oriented optimization
// framework for P4-programmable multicore SmartNICs.
//
// The package is a thin, stable façade over the implementation packages:
//
//   - Programs are match-action DAGs (tables, conditionals, switch-case
//     tables) loaded from a BMv2-style JSON IR or built programmatically.
//   - A Target (BlueField2, AgilioCX, EmulatedNIC) supplies the §3.1
//     approximate cost model: per-memory-access and per-action-primitive
//     latencies, branch cost, core count and line rate.
//   - An Emulator executes programs with per-packet cycle accounting,
//     LRU flow caches, heterogeneous ASIC/CPU pipelines with packet
//     migration, and profiling counters — the software SmartNIC.
//   - Optimize runs one search round: pipelet partitioning, top-k hot
//     pipelet detection, candidate enumeration (table reordering, table
//     caching, table merging), and the global knapsack plan search, then
//     rewrites the program.
//   - A Runtime closes the loop: it profiles a live emulator in windows,
//     re-optimizes, hot-swaps layouts, and keeps entry-management APIs
//     mapped onto whatever layout is deployed. Serve exposes that API
//     over TCP.
//
// See examples/quickstart for the fastest path from a program to an
// optimized layout.
package pipeleon

import (
	"pipeleon/internal/analysis"
	"pipeleon/internal/costmodel"
	"pipeleon/internal/diag"
	"pipeleon/internal/opt"
	"pipeleon/internal/p4c"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/profile"
)

// Program is a P4 program in graph IR form.
type Program = p4ir.Program

// Table, Conditional, Action, Entry, Key and friends re-export the IR
// vocabulary so callers can build programs without importing internals.
type (
	Table       = p4ir.Table
	Conditional = p4ir.Conditional
	Action      = p4ir.Action
	Primitive   = p4ir.Primitive
	Entry       = p4ir.Entry
	MatchValue  = p4ir.MatchValue
	Key         = p4ir.Key
	TableSpec   = p4ir.TableSpec
)

// Match kinds.
const (
	MatchExact   = p4ir.MatchExact
	MatchLPM     = p4ir.MatchLPM
	MatchTernary = p4ir.MatchTernary
	MatchRange   = p4ir.MatchRange
)

// ChainTables links table specs into a linear program.
func ChainTables(name string, specs []TableSpec) (*Program, error) {
	return p4ir.ChainTables(name, specs)
}

// NewAction builds an action from primitives.
func NewAction(name string, prims ...Primitive) *Action { return p4ir.NewAction(name, prims...) }

// Prim builds a primitive.
func Prim(op string, args ...string) Primitive { return p4ir.Prim(op, args...) }

// DropAction returns the canonical dropping action.
func DropAction() *Action { return p4ir.DropAction() }

// LoadProgram reads a program from a BMv2-style JSON file, or compiles it
// from P4 source when the path ends in ".p4".
func LoadProgram(path string) (*Program, error) { return p4c.LoadFile(path) }

// Target is a SmartNIC performance model (§3.1 cost-model parameters).
type Target = costmodel.Params

// BlueField2 models Nvidia BlueField2 (dRMT ASIC cores, 100 Gb/s).
func BlueField2() Target { return costmodel.BlueField2() }

// AgilioCX models Netronome Agilio CX (micro-engine CPU cores, 40 Gb/s).
func AgilioCX() Target { return costmodel.AgilioCX() }

// EmulatedNIC models the paper's §5.3.3 BMv2-emulator NIC (LPM/ternary 3x
// exact, branches 1/10 of an exact table).
func EmulatedNIC() Target { return costmodel.EmulatedNIC() }

// Profile is a runtime profile snapshot (counters, update rates,
// cardinalities).
type Profile = profile.Profile

// Collector is the concurrent profiling counter sink.
type Collector = profile.Collector

// NewCollector creates a collector recording every packet.
func NewCollector() *Collector { return profile.NewCollector() }

// ExpectedLatency evaluates the §3.1 cost model: the expected per-packet
// latency of prog on the target under the profile.
func ExpectedLatency(prog *Program, prof *Profile, target Target) float64 {
	return costmodel.ExpectedLatency(prog, prof, target)
}

// Options configures the optimizer; DefaultOptions matches the paper's
// defaults (top-20% pipelets, 2-table merge cap, per-cache LRU budgets).
type Options = opt.Config

// DefaultOptions returns the paper-faithful defaults.
func DefaultOptions() Options { return opt.DefaultConfig() }

// Plan is the outcome of one optimization search.
type Plan struct {
	// Result carries the search diagnostics (ranking, units, timing).
	Result *opt.SearchResult
	// Program is the rewritten program (nil when nothing worth doing).
	Program *Program
	// rewrite retains the counter map for advanced callers.
	rewrite *opt.Rewrite
}

// Gain is the plan's estimated whole-program latency reduction in ns.
func (p *Plan) Gain() float64 { return p.Result.Gain }

// Changed reports whether the plan rewrites the program.
func (p *Plan) Changed() bool { return p.Program != nil }

// TierPlan is a hierarchical-memory placement (the paper's §6 extension):
// which tables to pin to the target's fast SRAM tier.
type TierPlan = opt.TierPlan

// PlanMemoryTiers chooses tables to promote to SRAM within
// target.SRAMBytes, by saved-latency-per-byte density. It returns an
// empty plan when the target does not model tiers (SRAMFactor == 0).
func PlanMemoryTiers(prog *Program, prof *Profile, target Target) TierPlan {
	return opt.PlanMemoryTiers(prog, prof, target)
}

// ApplyMemoryTiers returns a copy of prog with the plan's tables pinned.
func ApplyMemoryTiers(prog *Program, plan TierPlan) *Program {
	return opt.ApplyMemoryTiers(prog, plan)
}

// Placement assigns tables to execution tiers — the ASIC, the on-path NIC
// CPU cores, and (on targets that model one) the off-path DPU/host tier —
// and marks tables copied onto every tier (§3.2.4, appendix A.2).
type Placement = opt.Placement

// NewPlacement derives the baseline placement from the program's tier
// floors: tables whose actions the ASIC cannot run start on the CPU tier.
func NewPlacement(prog *Program, target Target) Placement {
	return opt.NewPlacement(prog, target)
}

// EstimateHeteroLatency predicts mean per-packet latency under a
// placement, including per-tier execution speed, migration and DMA
// transfer charges, and table-update stalls.
func EstimateHeteroLatency(prog *Program, prof *Profile, target Target, pl Placement) (float64, error) {
	return opt.EstimateHeteroLatency(prog, prof, target, pl)
}

// PlanPlacement greedily improves a placement with up to maxMoves table
// copies, re-tierings, and whole-stage off-path offloads. On a two-tier
// target it reduces to the appendix A.2 table-copying planner.
func PlanPlacement(prog *Program, prof *Profile, target Target, base Placement, maxMoves int) (Placement, error) {
	return opt.GreedyPlacementPlan(prog, prof, target, base, maxMoves)
}

// Diagnostic is one static-analysis finding, with a stable rule code, a
// warn/error severity, and node/field position.
type Diagnostic = diag.Diagnostic

// Diagnostics is an ordered collection of findings.
type Diagnostics = diag.List

// Lint runs the static analyzer over a program: structural invariants
// (P4Sxx), semantic rules (PL1xx — unreachable nodes, uninitialized
// metadata reads, dead primitives, entry width mismatches, memory-tier
// overcommit, unsound cache specs). Pass the deployment target to enable
// the cost-model-dependent rules. The runtime and the control-plane deploy
// op apply the same rules and refuse programs with Error diagnostics.
func Lint(prog *Program, target ...Target) Diagnostics {
	var opts []analysis.Option
	if len(target) > 0 {
		opts = append(opts, analysis.WithParams(target[0]))
	}
	return analysis.Lint(prog, opts...)
}

// LintDeep runs the symbolic lint tier on top of Lint: the abstract
// interpreter's value-range rules (PL2xx — entries that can never be
// selected, shadowed entries, branches decided under the inferred
// ranges, dead writes, proven truncations). All findings are warnings;
// they flag dead weight and likely authoring bugs, not unsound
// programs. Enable the same tier at runtime with Options.DeepVerify. A
// malformed program yields none: Lint reports its structural errors.
func LintDeep(prog *Program) Diagnostics {
	if prog.StructuralDiagnostics().HasErrors() {
		return nil
	}
	return analysis.LintDeep(prog)
}

// Optimize runs one search-and-rewrite round against a program, profile,
// and target.
func Optimize(prog *Program, prof *Profile, target Target, o Options) (*Plan, error) {
	s, err := opt.NewSession(prog, target, o)
	if err != nil {
		return nil, err
	}
	res, rw, err := s.SearchAndApply(prof)
	if err != nil {
		return nil, err
	}
	plan := &Plan{Result: res}
	if rw != nil {
		plan.Program = rw.Program
		plan.rewrite = rw
	}
	return plan, nil
}
