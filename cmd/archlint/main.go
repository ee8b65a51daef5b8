// Command archlint checks the repo's architectural invariants with
// go/parser + go/ast — cheap structural rules that gofmt and go vet do
// not cover:
//
//   - layering: internal/core and internal/fleet must not import
//     internal/nicsim (the runtime reaches devices only through the
//     internal/target abstraction, the emulator being just one backend;
//     the fleet imports target and core, and binaries assemble emulators);
//     and internal/nicsim must not import internal/faultinject (device
//     faults are injected at the target boundary, target.WithFaults).
//   - determinism: internal/nicsim fast-path files and internal/target
//     record/replay files must not call time.Now or import math/rand —
//     any ambient wall clock or global RNG would make recorded device
//     sessions unreproducible on replay.
//   - one-estimator: in internal/opt only estimate.go, the file that
//     builds the cost view, may call ReachProbs, ActionProb, BranchProb,
//     NodeLatency or TableLatency.
//   - one-verifier: outside internal/analysis nothing uses
//     analysis.NewRewriteChecker, NewSemanticChecker, VerifyRewrite or
//     VerifySemantics; the proof tiers are composed by analysis.Verifier
//     only.
//   - one-kernel: in internal/nicsim and internal/opt nothing reads a
//     latency term of costmodel.Params (Lmat, Lact, BranchFactor,
//     CounterUpdate, CPUSlowdown, OffPathSlowdown, MigrationLatency, the
//     DMA*, UpdateStall* and *FixedM fields, SRAMFactor) or calls a cost
//     method whose value costmodel.Kernel holds; the emulator and the
//     optimizer read the kernel.
//   - serial-search: non-test files of internal/opt contain no go
//     statement and use no sync.WaitGroup, sync.Once, sync.Pool or
//     sync/atomic; a search is one goroutine on one session.
//   - one-round: non-test files of internal/fleet call neither
//     opt.NewSession nor a Search, SearchAndApply or Materialize method;
//     the fleet plans through a canary's core.Runtime.
//   - one-deploy: in non-test files of internal/core only deploy.go calls
//     a Deploy, Commit or Rollback method; construction, a round and an
//     entry operation's redeploy all put a program on the device through
//     its deployLocked (materialize and prove, gate, stage, make current).
//   - one-exit: in non-test files of internal/core only finishLocked
//     calls recordLocked, noteDeployFailureLocked or blacklistLocked; a
//     round's every outcome ends there, which records it and applies its
//     policy (breaker, blacklist, re-evaluation).
//   - live-knob: every exported field of the structs of settable values —
//     opt.Config, nicsim.Config, core.DeployGuard, fleet.Options,
//     fleet.RolloutConfig, fleet.VerifyConfig, fleet's healthPolicy,
//     controlplane.RetryPolicy and controlplane.Client — is set (assigned
//     through a selector, keyed in a composite literal, or taken by
//     address as a flag binding does) by non-test code outside the file
//     declaring it: in the module, a command's flags and the examples
//     included, or in the bench/ module. A field only tests set is a
//     constant that a literal built without the defaults silently zeroes;
//     a test that needs another value reaches an unexported field through
//     an export_test.go hook.
//   - one-decoder: outside internal/p4ir (the decoder) and internal/p4c
//     (the frontend) nothing compares or switches a .Op against a string
//     literal, and .Expr is read only as an argument of a fmt call or a
//     diag.List Add; a primitive or condition means what p4ir's
//     Primitive.Decode and Conditional.Decode say.
//   - one-index: in internal/ and cmd/, outside internal/p4ir (the index)
//     and internal/p4c (the frontend), nothing calls TopoOrder or
//     NodeNames, and no range loop stores an element's position under the
//     element (m[v] = i); a program's nodes are numbered by p4ir.Index.
//   - one-entry-writer: outside internal/p4ir no code assigns, appends to
//     or index-writes a .Entries or a .Primitives, save the builders that
//     fill a table or an action before any program holds it (entryWriters
//     lists each with its reason); a published program's entries change
//     through p4ir's Program.InsertEntry, DeleteEntry and ModifyEntry,
//     which count every change in its EntryVersion, and its actions, which
//     its clones share, never change.
//   - one-check: outside internal/p4ir only the functions oneCheckers lists
//     with their reasons — makers, the constructors that receive a caller's
//     program, the one-shot analyses — call Validate or
//     StructuralDiagnostics: a program is checked once.
//   - dead-export: every exported function, and every exported method of
//     an exported type, declared in a non-test file under internal/ is
//     named by non-test code outside its file — in the module or in the
//     bench/ module: a function as pkg.F through the file's import of its
//     package, or by its bare name within it; a method by any selector
//     spelling its name. deadExportAllowed lists the exceptions, each with
//     its reason. One nothing calls is deleted, one only its file calls is
//     unexported, one only its package's tests call moves to a test file.
//
// Test files are exempt from every rule, and read by none.
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
