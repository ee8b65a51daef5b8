// Command archlint checks the repo's architectural invariants with
// go/parser + go/ast — cheap structural rules that gofmt and go vet do
// not cover:
//
//   - layering: internal/core must not import internal/nicsim (the
//     runtime reaches devices only through the internal/target
//     abstraction; the emulator is just one backend).
//   - determinism: internal/nicsim fast-path files and internal/target
//     record/replay files must not call time.Now or import math/rand —
//     any ambient wall clock or global RNG would make recorded device
//     sessions unreproducible on replay.
//   - one-estimator: in internal/opt only estimate.go, the file that
//     builds the cost view, may call ReachProbs, ActionProb, DropProb,
//     BranchProb, NodeLatency or TableLatency.
//   - one-verifier: outside internal/analysis (and the root façade's
//     one-shot re-exports) nothing uses analysis.NewRewriteChecker,
//     NewSemanticChecker, VerifyRewrite or VerifySemantics; the proof
//     tiers are composed by analysis.Verifier only.
//   - one-kernel: in internal/nicsim and internal/opt nothing reads a
//     latency term of costmodel.Params (Lmat, Lact, BranchFactor,
//     CounterUpdate, CPUSlowdown, OffPathSlowdown, MigrationLatency, the
//     DMA*, UpdateStall* and *FixedM fields, SRAMFactor) or calls a cost
//     method whose value costmodel.Kernel holds; the emulator and the
//     optimizer read the kernel.
//   - serial-search: non-test files of internal/opt contain no go
//     statement and use no sync.WaitGroup, sync.Once, sync.Pool or
//     sync/atomic; a search is one goroutine on one session.
//   - live-knob: every exported field of opt.Config is set (assigned
//     through a selector, or keyed in a composite literal) somewhere in
//     the module outside internal/opt/config.go, test files counting as
//     users for this rule only; a field nothing sets is a constant that a
//     literal built without DefaultConfig silently zeroes.
//
// Test files are exempt from every rule (and read by live-knob only).
// Violations print one per line as file:line: [rule] message; the exit
// status is 1 when any were found and 2 on I/O or parse errors.
//
// Usage:
//
//	archlint [module-root]
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	flag.Parse()
	root := "."
	if flag.NArg() > 1 {
		fmt.Fprintln(os.Stderr, "usage: archlint [module-root]")
		os.Exit(2)
	}
	if flag.NArg() == 1 {
		root = flag.Arg(0)
	}
	vs, err := lintModule(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "archlint: %v\n", err)
		os.Exit(2)
	}
	for _, v := range vs {
		fmt.Println(v)
	}
	if len(vs) > 0 {
		fmt.Fprintf(os.Stderr, "archlint: %d violation(s)\n", len(vs))
		os.Exit(1)
	}
}
