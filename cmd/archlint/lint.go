package main

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Violation is one architectural rule breach at a source position.
type Violation struct {
	Pos  token.Position
	Rule string
	Msg  string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", v.Pos.Filename, v.Pos.Line, v.Rule, v.Msg)
}

// importRule forbids files under Dir (non-test) from importing Path.
type importRule struct {
	Dir  string // module-relative directory, e.g. "internal/core"
	Path string // forbidden import path
	Why  string
}

// determinismRule forbids wall-clock and ambient-randomness use in files
// under Dir whose base name matches Match (empty = all non-test files):
// no time.Now calls and no math/rand imports. These files feed the
// record/replay machinery, where any nondeterminism makes a recorded
// session unreproducible.
type determinismRule struct {
	Dir   string
	Match func(base string) bool
	Why   string
}

var importRules = []importRule{
	{
		Dir:  "internal/core",
		Path: "pipeleon/internal/nicsim",
		Why:  "the runtime must reach devices through internal/target, never the emulator directly",
	},
	{
		Dir:  "internal/fleet",
		Path: "pipeleon/internal/nicsim",
		Why:  "the fleet controller manages devices through internal/target; only binaries may construct emulators",
	},
	{
		Dir:  "internal/nicsim",
		Path: "pipeleon/internal/faultinject",
		Why:  "device faults are injected at the target boundary (target.WithFaults), never inside the emulator",
	},
}

// tierNameRule forbids files under Dir (non-test) from naming concrete
// execution tiers (costmodel.TierASIC / TierNICCPU / TierOffPath).
// Placement and runtime code must iterate tiers generically — 0..Kernel.Tiers
// — so adding a fourth tier never requires touching them; only costmodel
// may say what a tier concretely is.
type tierNameRule struct {
	Dir string
	Why string
}

var tierNames = map[string]bool{
	"TierASIC":    true,
	"TierNICCPU":  true,
	"TierOffPath": true,
}

var tierNameRules = []tierNameRule{
	{
		Dir: "internal/opt",
		Why: "the placement search is tier-generic; iterate 0..Kernel.Tiers instead",
	},
	{
		Dir: "internal/core",
		Why: "the runtime is tier-generic; iterate 0..Kernel.Tiers instead",
	},
}

// costDerivations are the calls that turn a (program, profile, cost model)
// triple into probabilities and node latencies. Inside internal/opt only
// the file that builds the cost view (Evaluator) may make them: every
// estimate there is an integral over the view, and a second reading of the
// profile is how the optimizer once came to price one program four ways.
// internal/core may make none: a round has one reader of the profile, the
// session's view, and change detection reads that (opt.Session.Observe).
var costDerivations = map[string]bool{
	"ReachProbs": true, "ReachProbsAlong": true, "ActionProb": true, "BranchProb": true,
	"NodeLatency": true, "TableLatency": true,
}

const costViewDir, costViewFile, roundDir = "internal/opt", "estimate.go", "internal/core"

// proofPrimitives are internal/analysis's proof constructors and one-shot
// proofs. Outside that package nothing composes them: analysis.Verifier
// does, once, and every other layer asks it (or an analysis.Gate over it).
// A second composition is how the wire gate once kept a baseline the
// search's verifier had long since learned to refresh.
var proofPrimitives = map[string]bool{
	"NewRewriteChecker": true, "NewSemanticChecker": true,
	"VerifyRewrite": true, "VerifySemantics": true,
}

const analysisDir, analysisPath = "internal/analysis", "pipeleon/internal/analysis"

// A search is one goroutine on one session (opt.Session.mu admits one round
// at a time, and a round's work is 65-860 µs: a fan-out over it measured as
// nothing or a loss — DESIGN.md, "The search is serial"). So internal/opt
// starts no goroutine and holds none of the primitives that exist to share
// state between them; the mutex stays, for the callers that share a session.
const serialDir = "internal/opt"

var sharingPrimitives = map[string]bool{"WaitGroup": true, "Once": true, "Pool": true}

// costmodel.Kernel is where a target's parameters become costs: the
// emulator (internal/nicsim) charges its terms per event and the optimizer
// (internal/opt) integrates them over a profile. Neither reads a latency term
// of costmodel.Params, nor calls a Params method whose value the kernel now
// holds — when each derived the terms itself, the two priced a conditional
// off the ASIC differently. As syntactic as the other rules: any selector
// spelling a term or one of those method names counts, whatever its
// receiver (Table.MatchComplexity included: the kernel's Match is m there).
var kernelDirs = []string{"internal/nicsim", "internal/opt"}

var (
	latencyTermRE = regexp.MustCompile(`^(Lmat|Lact|BranchFactor|CounterUpdate|CPUSlowdown|OffPathSlowdown|MigrationLatency|DMA(BaseNs|PerPacketNs|Batch)|UpdateStall(ASIC|CPU|OffPath)|SRAMFactor|(LPM|Ternary)FixedM)$`)
	kernelMethods = map[string]bool{
		"MatchComplexity": true, "TierFactor": true, "MatchLatency": true, "CondLatency": true,
		"TierSpeed": true, "MigrationCost": true, "TierUpdateStall": true, "OffPathCrossNs": true,
	}
)

// The fleet plans only through core.Runtime: a canary's round is the
// single-device round, with its counter translation, change detection,
// hysteresis and guard. So non-test files of internal/fleet neither build an
// optimizer session nor search or materialize on one — the fleet's own copy
// of the round once searched a canary's untranslated counters. Methods match
// by name, as syntactically as one-kernel.
const fleetDir, optPath = "internal/fleet", "pipeleon/internal/opt"

var sessionMethods = map[string]bool{"Search": true, "SearchAndApply": true, "Materialize": true}

// A program reaches a device by one path: internal/core's deploy.go
// materializes and proves it, gates it, stages it and makes it current,
// and its callers keep only their policy (commit at once, or judge a
// verification window first). So in the non-test files of internal/core
// only that file calls a Deploy, Commit or Rollback method — an entry
// operation's second path once deployed its regenerated program without
// the gate. Methods match by name, a method value included, as
// syntactically as one-round.
const deployDir, deployFile = "internal/core", "deploy.go"

var deviceMethods = map[string]bool{"Deploy": true, "Commit": true, "Rollback": true}

// A round has one exit: internal/core's finishLocked applies the policy of
// every outcome. So in the non-test files of internal/core no other
// function, nor a package-level initializer, names the round's policy
// actions — recording a round, charging the breaker, blacklisting a plan.
const finishFunc = "finishLocked"

var roundPolicy = map[string]bool{"recordLocked": true, "noteDeployFailureLocked": true, "blacklistLocked": true}

var determinismRules = []determinismRule{
	{
		Dir: "internal/nicsim",
		Why: "the emulator fast path must be deterministic for record/replay",
	},
	{
		Dir: "internal/target",
		Match: func(base string) bool {
			return strings.Contains(base, "replay") || strings.Contains(base, "record")
		},
		Why: "trace record/replay must be bit-reproducible",
	},
}

// lintModule walks the module rooted at root and returns all violations,
// sorted by position. Test files (_test.go) are exempt from every rule —
// they may construct emulators and use wall-clock timeouts freely — and
// no rule counts them as callers or setters.
func lintModule(root string) ([]Violation, error) {
	fset := token.NewFileSet()
	var out []Violation
	var errs []error
	collect := func(vs []Violation, err error) { out, errs = append(out, vs...), append(errs, err) }
	inDir := func(dir string, match func(string) bool, check func(*ast.File) []Violation) {
		collect(lintDir(fset, filepath.Join(root, dir), match, check))
	}
	// files runs check over every non-test file of the module whose
	// slash-separated module-relative path keep accepts.
	files := func(keep func(rel string) bool, check func(rel string, f *ast.File) []Violation) {
		errs = append(errs, walkModule(fset, root, func(path string, f *ast.File) {
			rel, _ := filepath.Rel(root, path)
			if rel = filepath.ToSlash(rel); keep(rel) {
				out = append(out, check(rel, f)...)
			}
		}))
	}
	under := func(rel string, dirs ...string) bool {
		return slices.ContainsFunc(dirs, func(dir string) bool { return strings.HasPrefix(rel, dir+"/") })
	}
	for _, r := range importRules {
		inDir(r.Dir, nil, func(f *ast.File) []Violation { return checkImports(fset, f, r) })
	}
	for _, r := range determinismRules {
		inDir(r.Dir, r.Match, func(f *ast.File) []Violation { return checkDeterminism(fset, f, r) })
	}
	for _, r := range tierNameRules {
		inDir(r.Dir, nil, func(f *ast.File) []Violation { return checkTierNames(fset, f, r) })
	}
	costView := func(f *ast.File) []Violation { return checkCostView(fset, f) }
	inDir(costViewDir, func(base string) bool { return base != costViewFile }, costView)
	inDir(roundDir, nil, costView)
	inDir(serialDir, nil, func(f *ast.File) []Violation { return checkSerial(fset, f) })
	for _, dir := range kernelDirs {
		inDir(dir, nil, func(f *ast.File) []Violation { return checkKernel(fset, f) })
	}
	inDir(fleetDir, nil, func(f *ast.File) []Violation { return checkOneRound(fset, f) })
	inDir(deployDir, func(base string) bool { return base != deployFile }, func(f *ast.File) []Violation { return checkOneDeploy(fset, f) })
	inDir(deployDir, nil, func(f *ast.File) []Violation { return checkOneExit(fset, f) })
	collect(lintDiagCodes(fset, root))
	collect(lintLiveKnobs(fset, root))
	collect(lintDeadExports(fset, root))
	files(func(rel string) bool { return !under(rel, analysisDir) },
		func(_ string, f *ast.File) []Violation { return checkOneVerifier(fset, f) })
	irOrFrontend := func(rel string) bool { return under(rel, "internal/p4ir", "internal/p4c") }
	files(func(rel string) bool { return !irOrFrontend(rel) },
		func(_ string, f *ast.File) []Violation { return checkOneDecoder(fset, f) })
	files(func(rel string) bool { return under(rel, "internal", "cmd") && !irOrFrontend(rel) },
		func(_ string, f *ast.File) []Violation { return checkOneIndex(fset, f) })
	files(func(rel string) bool { return !under(rel, "internal/p4ir") },
		func(rel string, f *ast.File) []Violation {
			return append(checkOneEntryWriter(fset, rel, f), checkOneCheck(fset, rel, f)...)
		})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		return out[i].Pos.Line < out[j].Pos.Line
	})
	return out, nil
}

// The IR's action and condition language (Primitive.Op, Conditional.Expr)
// means what internal/p4ir's Primitive.Decode and Conditional.Decode say;
// internal/p4c, the frontend that emits it, is the one other package that
// spells it (a second reading once missed what forward writes). So no .Op
// is compared or switched against a string literal, and .Expr is read only
// as an argument of a fmt call or an Add (a diag.List message).
func checkOneDecoder(fset *token.FileSet, f *ast.File) []Violation {
	var out []Violation
	report := func(n ast.Node, what string) {
		out = append(out, Violation{Pos: fset.Position(n.Pos()), Rule: "one-decoder",
			Msg: what + ": decode it with p4ir's Primitive.Decode or Conditional.Decode instead"})
	}
	imported := map[string]bool{}
	for _, imp := range f.Imports {
		if p, err := strconv.Unquote(imp.Path.Value); err == nil {
			imported[importName(f, p)] = true
		}
	}
	field := func(e ast.Expr, name string) bool { // a field, not a package's identifier
		sel, ok := e.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != name {
			return false
		}
		id, isIdent := sel.X.(*ast.Ident)
		return !isIdent || id.Obj != nil || !imported[id.Name]
	}
	isStr := func(e ast.Expr) bool { lit, ok := e.(*ast.BasicLit); return ok && lit.Kind == token.STRING }
	message, fmtName := map[ast.Expr]bool{}, importName(f, "fmt")
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if id, isIdent := sel.X.(*ast.Ident); sel.Sel.Name == "Add" || isIdent && id.Name == fmtName {
					for _, a := range n.Args {
						message[a] = true
					}
				}
			}
		case *ast.SelectorExpr:
			if field(n, "Expr") && !message[n] {
				report(n, "reads .Expr")
			}
		case *ast.BinaryExpr:
			if (n.Op == token.EQL || n.Op == token.NEQ) && (field(n.X, "Op") && isStr(n.Y) || field(n.Y, "Op") && isStr(n.X)) {
				report(n, "compares .Op to a string literal")
			}
		case *ast.SwitchStmt:
			if field(n.Tag, "Op") && slices.ContainsFunc(n.Body.List, func(c ast.Stmt) bool {
				return slices.ContainsFunc(c.(*ast.CaseClause).List, isStr)
			}) {
				report(n, "switches on .Op over string literals")
			}
		}
		return true
	})
	return out
}

// A program's nodes are numbered once, by p4ir.Index: four layers once kept
// a private name→number map each, in three orders, and read "" two ways.
// So in internal/ and cmd/, outside internal/p4ir (the index) and
// internal/p4c (the frontend, which numbers action parameters before any
// program exists), nothing calls TopoOrder or NodeNames, and no range loop
// stores an element's position under the element (m[v] = i, or a
// conversion of i). examples/ may call the public TopoOrder.
func checkOneIndex(fset *token.FileSet, f *ast.File) []Violation {
	var out []Violation
	report := func(n ast.Node, what string) {
		out = append(out, Violation{Pos: fset.Position(n.Pos()), Rule: "one-index",
			Msg: what + ": number nodes with p4ir.Index (ID, Pos, Topo, Names) instead"})
	}
	named := func(e ast.Expr, id *ast.Ident) bool {
		if conv, ok := e.(*ast.CallExpr); ok && len(conv.Args) == 1 {
			e = conv.Args[0]
		}
		x, ok := e.(*ast.Ident)
		return ok && id != nil && id.Name != "_" && x.Name == id.Name
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && (sel.Sel.Name == "TopoOrder" || sel.Sel.Name == "NodeNames") {
			report(n, "calls "+sel.Sel.Name)
		}
		if r, ok := n.(*ast.RangeStmt); ok {
			k, _ := r.Key.(*ast.Ident)
			v, _ := r.Value.(*ast.Ident)
			ast.Inspect(r.Body, func(m ast.Node) bool {
				if as, ok := m.(*ast.AssignStmt); ok && as.Tok == token.ASSIGN && len(as.Lhs) == 1 && len(as.Rhs) == 1 {
					if lhs, ok := as.Lhs[0].(*ast.IndexExpr); ok && named(lhs.Index, v) && named(as.Rhs[0], k) {
						report(as, "maps each name to its position")
					}
				}
				return true
			})
		}
		return true
	})
	return out
}

// A published program's entries change through p4ir's entry operations
// only (Program.InsertEntry, DeleteEntry, ModifyEntry), which count every
// change in the program's EntryVersion: the verifier, the gate and the
// optimizer's cost view key what they derived from the entries by it, and
// an uncounted write would let a stale proof reach a device. Its actions
// never change: a program's clones share them (p4ir's Program.Clone), so
// a write into one would change every clone, the device's included. So
// outside internal/p4ir no non-test code assigns, appends to or
// index-writes a .Entries or a .Primitives, save where entryWriters says
// why. The match is syntactic: any selector of those names counts, a
// TableSpec's or a parsed declaration's included.
var entryWriters = []struct{ file, fn, why string }{
	{"internal/p4c/lower.go", "", "lowers a parsed table into a table no program holds yet"},
	{"internal/p4c/parser.go", "", "collects a table declaration's const entries"},
	{"internal/synth/synth.go", "", "fills the table specs of a program it is building"},
	{"internal/experiments/programs.go", "", "fills the table specs of the figures' programs"},
	{"internal/experiments/fig11.go", "", "fills the table specs of fig11's program"},
	{"internal/opt/rewrite.go", "buildMergedCache", "fills the merged cache table it creates"},
	{"internal/opt/rewrite.go", "buildInPlaceMerge", "fills the merged table it creates"},
	{"internal/experiments/fig12.go", "counterBenchProgram", "fills the actions of the table specs of fig12's program"},
	{"examples/dashrouting/main.go", "", "fills the table specs of the example's program"},
	{"examples/loadbalancer/main.go", "", "fills the table specs of the example's program"},
}

// A program is checked once, by the code that makes or receives it (DESIGN.md,
// "Who checks a program"): outside internal/p4ir, whose builders and decoders
// check what they make, only the functions listed here (by file and name,
// with the reason) call a Validate or StructuralDiagnostics method.
var oneCheckers = map[string]string{
	"internal/p4c/lower.go lower":               "the frontend makes the program",
	"internal/opt/rewrite.go Apply":             "makes a plan's program",
	"internal/opt/verify.go verify":             "makes the scratch rewrite an option is proven on",
	"internal/opt/session.go NewSession":        "receives a caller's program (core.NewRuntime, cmd/pipeleon, the façade, the fleet canary)",
	"internal/nicsim/nic.go New":                "receives a caller's program",
	"internal/analysis/analysis.go Lint":        "a one-shot analysis of a program from anywhere",
	"pipeleon.go LintDeep":                      "receives a caller's program for the deep tier, which trusts it",
	"internal/analysis/verify.go VerifyRewrite": "a one-shot proof over programs from anywhere",
}

func checkOneCheck(fset *token.FileSet, rel string, f *ast.File) []Violation {
	return selectorsNamed(fset, f, "one-check", true, func(fn string) bool { return oneCheckers[rel+" "+fn] != "" }, func(sel *ast.SelectorExpr) bool {
		return sel.Sel.Name == "Validate" || sel.Sel.Name == "StructuralDiagnostics"
	}, func(name string) string {
		return "calls " + name + ": a program is checked by the code that makes or receives it (oneCheckers); trust the one you were handed"
	})
}

func checkOneEntryWriter(fset *token.FileSet, rel string, f *ast.File) []Violation {
	var out []Violation
	for _, d := range f.Decls {
		fn := ""
		if fd, ok := d.(*ast.FuncDecl); ok {
			fn = fd.Name.Name
		}
		if slices.ContainsFunc(entryWriters, func(w struct{ file, fn, why string }) bool {
			return w.file == rel && (w.fn == "" || w.fn == fn)
		}) {
			continue
		}
		ast.Inspect(d, func(n ast.Node) bool {
			var targets []ast.Expr
			switch n := n.(type) {
			case *ast.AssignStmt:
				targets = n.Lhs
			case *ast.IncDecStmt:
				targets = []ast.Expr{n.X}
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "append" && len(n.Args) > 0 {
					targets = n.Args[:1]
				}
			}
			for _, e := range targets {
				switch into(e) {
				case "Entries":
					out = append(out, Violation{Pos: fset.Position(e.Pos()), Rule: "one-entry-writer",
						Msg: "writes .Entries: change a program's entries with p4ir's Program.InsertEntry, DeleteEntry or ModifyEntry"})
				case "Primitives":
					out = append(out, Violation{Pos: fset.Position(e.Pos()), Rule: "one-entry-writer",
						Msg: "writes .Primitives: a program's clones share its actions; build a new action instead"})
				}
			}
			return true
		})
	}
	return out
}

// into names the shared field the write target e is or reaches into —
// "Entries" for t.Entries, t.Entries[i] or t.Entries[i].Args, "Primitives"
// for a.Primitives or t.Actions[0].Primitives[i].Args[j] — or is "".
func into(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if x.Sel.Name == "Entries" || x.Sel.Name == "Primitives" {
				return x.Sel.Name
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return ""
		}
	}
}

// Every export earns a caller: an exported function, or an exported method
// of an exported type, declared in a non-test file under internal/ is named
// by non-test code outside its file — in the root module, or in the bench/
// module, which drives the program from outside. One nothing calls is
// deleted; one only its file calls is unexported; one only its package's
// tests call moves into a test file. A package-level function F of package
// P is referenced by X.F where X is the file's import name for P, or by the
// bare F within P: flag.Parse is no call of packet.Parse. A method is
// referenced by any selector spelling its name that is not package-qualified
// (x.Name, so an interface call counts), a match by name as syntactic as the
// other rules. deadExportAllowed lists the exports kept without a caller,
// each with its reason; the name "*" keeps every export of a package.
var deadExportAllowed = []struct{ pkg, name, why string }{
	{"internal/diag", "Severity.MarshalText", "encoding.TextMarshaler: encoding/json calls it"},
	{"internal/diag", "Severity.UnmarshalText", "encoding.TextUnmarshaler: encoding/json calls it"},
	{"internal/controlplane", "WithDeepVerify", "the server option that serves the deep proof tier; nicd is to turn it on by default"},
	{"internal/costmodel", "Calibrate", "fits a target's parameters to measured latencies; its replacement is on the roadmap"},
	{"internal/costmodel", "Calibration.Apply", "writes Calibrate's fit into a Params; kept with Calibrate"},
	{"internal/core", "Runtime.History", "the per-round record the planned decision log reads"},
	{"internal/target", "NewReplayer", "the record/replay backend of the target conformance suite"},
	{"internal/faultinject", "NewScript", "the scripted injector the fault tests of core, controlplane, target and fleet queue decisions into"},
	{"internal/faultinject", "Script.Queue", "kept with NewScript"},
	{"internal/faultinject", "Script.Pending", "kept with NewScript"},
	{"internal/profile/profiletest", "*", "test-support package: its callers are other packages' tests"},
}

// modulePath is the root module's import path, which bench/ imports too.
const modulePath = "pipeleon"

func lintDeadExports(fset *token.FileSet, root string) ([]Violation, error) {
	type export struct {
		pkg, name, file string // module-relative dir, [Recv.]Name, path
		short           string // the bare function or method name
		pkgName         string
		pos             token.Pos
	}
	var exports []export
	selected := map[string][]string{}  // method-like selector name -> files
	qualified := map[string][]string{} // import path + "." + name -> files
	named := map[string][]string{}     // dir + "." + bare name -> files
	visit := func(path string, f *ast.File) {
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		dir := filepath.ToSlash(filepath.Dir(rel))
		imports := map[string]string{} // import name -> path
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if name := importName(f, p); name != "" && name != "." {
				imports[name] = p
			}
		}
		decl := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			decl[fd.Name] = true
			recv := ""
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				recv = recvTypeName(fd.Recv.List[0].Type)
				if !ast.IsExported(recv) {
					continue
				}
				recv += "."
			}
			if strings.HasPrefix(rel, "internal/") && fd.Name.IsExported() {
				exports = append(exports, export{dir, recv + fd.Name.Name, path, fd.Name.Name, f.Name.Name, fd.Name.Pos()})
			}
		}
		var refs func(n ast.Node) bool
		refs = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					key := imports[x.Name] + "." + n.Sel.Name
					qualified[key] = append(qualified[key], path)
					return false
				}
				selected[n.Sel.Name] = append(selected[n.Sel.Name], path)
				ast.Inspect(n.X, refs) // n.Sel is no bare name
				return false
			case *ast.Field: // a struct field or an interface method declares its name
				for _, id := range n.Names {
					decl[id] = true
				}
			case *ast.KeyValueExpr: // so does a composite literal's field key
				if id, ok := n.Key.(*ast.Ident); ok {
					decl[id] = true
				}
			case *ast.Ident:
				if !decl[n] {
					named[dir+"."+n.Name] = append(named[dir+"."+n.Name], path)
				}
			}
			return true
		}
		ast.Inspect(f, refs)
	}
	err := walkCallers(fset, root, visit)
	var out []Violation
	for _, e := range exports {
		elsewhere := func(p string) bool { return p != e.file }
		refs := qualified[modulePath+"/"+e.pkg+"."+e.short]
		if e.short != e.name { // a method
			refs = selected[e.short]
		}
		if slices.ContainsFunc(refs, elsewhere) || slices.ContainsFunc(named[e.pkg+"."+e.short], elsewhere) ||
			slices.ContainsFunc(deadExportAllowed, func(a struct{ pkg, name, why string }) bool {
				return a.pkg == e.pkg && (a.name == e.name || a.name == "*")
			}) {
			continue
		}
		out = append(out, Violation{Pos: fset.Position(e.pos), Rule: "dead-export",
			Msg: fmt.Sprintf("%s.%s has no non-test caller outside its file: delete it, unexport it, or move it into a test file", e.pkgName, e.name)})
	}
	return out, err
}

// recvTypeName is the type name of a method receiver: T of T, *T, T[P] or *T[P, Q].
func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// lintDir parses every matching non-test .go file under dir (recursively)
// and applies check. A missing directory is not an error: rules describe
// the layout, and a package may legitimately not exist yet.
func lintDir(fset *token.FileSet, dir string, match func(string) bool, check func(*ast.File) []Violation) ([]Violation, error) {
	var out []Violation
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if d == nil { // root does not exist
				return fs.SkipAll
			}
			return err
		}
		if d.IsDir() {
			return nil
		}
		base := d.Name()
		if !strings.HasSuffix(base, ".go") || strings.HasSuffix(base, "_test.go") {
			return nil
		}
		if match != nil && !match(base) {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
		out = append(out, check(f)...)
		return nil
	})
	return out, err
}

// diagCodeRE matches the stable diagnostic codes the analyzer emits
// (P4Sxx structural checks, PLxxx structural/symbolic lint, RWxxx rewrite
// proofs, SExxx semantic equivalence). Each code is the contract between
// the analyzer and everything that filters on it (CI, the deploy gate,
// operators reading round reports), so two rules apply module-wide: a code
// is declared by exactly one constant, and every declared code has a row,
// `CODE` in backticks, in the root DESIGN.md diagnostics table.
var diagCodeRE = regexp.MustCompile(`^((PL|RW|SE)[0-9]{3}|P4S[0-9]{2})$`)

// lintDiagCodes collects, module-wide, constant declarations whose value
// is a diag-code string literal, and reports duplicates and codes missing
// from DESIGN.md.
func lintDiagCodes(fset *token.FileSet, root string) ([]Violation, error) {
	design, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	var out []Violation
	firstDecl := map[string]token.Position{}
	// Deterministic order regardless of map/walk quirks: collect decls,
	// then judge them sorted by position.
	type decl struct {
		code string
		pos  token.Position
	}
	var decls []decl
	walkErr := walkModule(fset, root, func(_ string, f *ast.File) {
		for _, dcl := range f.Decls {
			gd, ok := dcl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, v := range vs.Values {
					lit, ok := v.(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						continue
					}
					code, err := strconv.Unquote(lit.Value)
					if err != nil || !diagCodeRE.MatchString(code) {
						continue
					}
					decls = append(decls, decl{code, fset.Position(lit.Pos())})
				}
			}
		}
	})
	if walkErr != nil {
		return nil, walkErr
	}
	sort.Slice(decls, func(i, j int) bool {
		if decls[i].pos.Filename != decls[j].pos.Filename {
			return decls[i].pos.Filename < decls[j].pos.Filename
		}
		return decls[i].pos.Line < decls[j].pos.Line
	})
	for _, dc := range decls {
		if prev, dup := firstDecl[dc.code]; dup {
			out = append(out, Violation{
				Pos:  dc.pos,
				Rule: "diag-code",
				Msg: fmt.Sprintf("diagnostic code %s already declared at %s:%d; codes must be unique module-wide",
					dc.code, prev.Filename, prev.Line),
			})
			continue
		}
		firstDecl[dc.code] = dc.pos
		if !strings.Contains(string(design), "`"+dc.code+"`") {
			out = append(out, Violation{
				Pos:  dc.pos,
				Rule: "diag-code",
				Msg:  fmt.Sprintf("diagnostic code %s has no row in DESIGN.md's diagnostics table", dc.code),
			})
		}
	}
	return out, nil
}

// walkModule parses every non-test .go file of the module rooted at root
// and hands it to visit with its path.
// Fixture trees under testdata, dot directories and nested modules (bench/)
// are not part of the module's code-facing surface.
func walkModule(fset *token.FileSet, root string, visit func(path string, f *ast.File)) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			_, nested := os.Stat(filepath.Join(path, "go.mod"))
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || nested == nil) {
				return fs.SkipDir
			}
			return nil
		}
		if base := d.Name(); !strings.HasSuffix(base, ".go") || strings.HasSuffix(base, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
		visit(path, f)
		return nil
	})
}

// walkCallers walks the non-test files of the module rooted at root and of
// its bench/ module, which drives the program from outside: the code that
// counts as a caller or a setter.
func walkCallers(fset *token.FileSet, root string, visit func(path string, f *ast.File)) error {
	err := walkModule(fset, root, visit)
	if bench := filepath.Join(root, "bench"); err == nil {
		if _, serr := os.Stat(bench); serr == nil {
			err = walkModule(fset, bench, visit)
		}
	}
	return err
}

// knobs are the structs of settable values. A field only tests set is not
// a tunable: it is a constant that a literal built without the defaults
// silently zeroes (six such fields once priced every cache at hit rate 0 for
// whoever wrote opt.Config{...}). So every exported field must be set by
// non-test code outside the file declaring it — in the module, a command's
// flag or an example included, or in the bench/ module, which drives the
// program from outside: assigned through a selector (cfg.F = v, or
// cfg.F.G = v, which sets F too), keyed in a composite literal, or handed
// out by address (&cfg.F, as a flag.Var binding does). A test that needs
// another value reaches an unexported field through an export_test.go hook.
// The match is by field name, as syntactic as the other rules.
var knobs = []struct{ file, typ string }{
	{"internal/opt/config.go", "Config"},
	{"internal/nicsim/nic.go", "Config"},
	{"internal/core/guard.go", "DeployGuard"},
	{"internal/fleet/fleet.go", "Options"},
	{"internal/fleet/rollout.go", "RolloutConfig"},
	{"internal/fleet/rollout.go", "VerifyConfig"},
	{"internal/fleet/device.go", "healthPolicy"},
	{"internal/controlplane/client.go", "RetryPolicy"},
	{"internal/controlplane/client.go", "Client"},
}

func lintLiveKnobs(fset *token.FileSet, root string) ([]Violation, error) {
	type field struct {
		file, typ, name string
		pos             token.Pos
	}
	var fields []field
	setIn := map[string][]string{} // field name -> files setting it
	set := func(e ast.Expr, path string) {
		for sel, ok := e.(*ast.SelectorExpr); ok; sel, ok = sel.X.(*ast.SelectorExpr) {
			setIn[sel.Sel.Name] = append(setIn[sel.Sel.Name], path)
		}
	}
	err := walkCallers(fset, root, func(path string, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				for _, k := range knobs {
					if !ok || path != filepath.Join(root, k.file) || n.Name.Name != k.typ {
						continue
					}
					for _, fld := range st.Fields.List {
						for _, name := range fld.Names {
							if name.IsExported() {
								fields = append(fields, field{k.file, k.typ, name.Name, name.Pos()})
							}
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					set(lhs, path)
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					set(n.X, path)
				}
			case *ast.KeyValueExpr:
				if key, ok := n.Key.(*ast.Ident); ok {
					setIn[key.Name] = append(setIn[key.Name], path)
				}
			}
			return true
		})
	})
	var out []Violation
	for _, fl := range fields {
		decl := filepath.Join(root, fl.file)
		if !slices.ContainsFunc(setIn[fl.name], func(p string) bool { return p != decl }) {
			out = append(out, Violation{
				Pos:  fset.Position(fl.pos),
				Rule: "live-knob",
				Msg: fmt.Sprintf("%s.%s is set by no non-test code outside %s: make it an unexported constant "+
					"(a test reaches another value through an export_test.go hook), or delete it",
					fl.typ, fl.name, fl.file),
			})
		}
	}
	return out, err
}

// importName returns the local name f imports path under — so aliased
// imports are caught and unrelated identifiers are not — or "" when it
// does not import it by a usable name.
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		if p, err := strconv.Unquote(imp.Path.Value); err != nil || p != path {
			continue
		}
		switch {
		case imp.Name == nil:
			return path[strings.LastIndexByte(path, '/')+1:]
		case imp.Name.Name != "_":
			return imp.Name.Name
		}
	}
	return ""
}

func checkImports(fset *token.FileSet, f *ast.File, r importRule) []Violation {
	var out []Violation
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		if path == r.Path {
			out = append(out, Violation{
				Pos:  fset.Position(imp.Pos()),
				Rule: "layering",
				Msg:  fmt.Sprintf("imports %s: %s", path, r.Why),
			})
		}
	}
	return out
}

func checkTierNames(fset *token.FileSet, f *ast.File, r tierNameRule) []Violation {
	var out []Violation
	cmName := importName(f, "pipeleon/internal/costmodel")
	if cmName == "" {
		return out
	}
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || !tierNames[sel.Sel.Name] {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == cmName && id.Obj == nil {
			out = append(out, Violation{
				Pos:  fset.Position(sel.Pos()),
				Rule: "tier-generic",
				Msg:  fmt.Sprintf("names concrete tier %s.%s: %s", cmName, sel.Sel.Name, r.Why),
			})
		}
		return true
	})
	return out
}

// selectorsNamed reports, as rule, every selector under f that match
// accepts — a call, a method value or a field read alike, or with calls set
// only the called ones — outside the functions skip (if set) accepts by
// name; msg says why.
func selectorsNamed(fset *token.FileSet, f ast.Node, rule string, calls bool, skip func(fn string) bool, match func(*ast.SelectorExpr) bool, msg func(name string) string) []Violation {
	var out []Violation
	ast.Inspect(f, func(n ast.Node) bool {
		if fd, ok := n.(*ast.FuncDecl); ok && skip != nil && skip(fd.Name.Name) {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && calls {
			n = call.Fun
		} else if calls {
			return true
		}
		if sel, ok := n.(*ast.SelectorExpr); ok && match(sel) {
			out = append(out, Violation{Pos: fset.Position(sel.Pos()), Rule: rule, Msg: msg(sel.Sel.Name)})
		}
		return true
	})
	return out
}

// pkgSelector reports whether sel is pkgName.Name for an import name pkgName.
func pkgSelector(sel *ast.SelectorExpr, pkgName string) bool {
	id, ok := sel.X.(*ast.Ident)
	return ok && pkgName != "" && id.Name == pkgName && id.Obj == nil
}

func checkOneVerifier(fset *token.FileSet, f *ast.File) []Violation {
	pkgName := importName(f, analysisPath)
	return selectorsNamed(fset, f, "one-verifier", false, nil, func(sel *ast.SelectorExpr) bool {
		return proofPrimitives[sel.Sel.Name] && pkgSelector(sel, pkgName)
	}, func(name string) string {
		return fmt.Sprintf("uses %s.%s outside %s: ask an analysis.Verifier (or an analysis.Gate over one) instead of composing proof tiers again",
			pkgName, name, analysisDir)
	})
}

func checkCostView(fset *token.FileSet, f *ast.File) []Violation {
	return selectorsNamed(fset, f, "one-estimator", true, nil, func(sel *ast.SelectorExpr) bool { return costDerivations[sel.Sel.Name] }, func(name string) string {
		return fmt.Sprintf("calls %s outside %s/%s: read the quantity from the cost view (opt.Evaluator, opt.Session.Observe) instead of deriving it again",
			name, costViewDir, costViewFile)
	})
}

func checkKernel(fset *token.FileSet, f *ast.File) []Violation {
	return selectorsNamed(fset, f, "one-kernel", false, nil, func(sel *ast.SelectorExpr) bool {
		return latencyTermRE.MatchString(sel.Sel.Name) || kernelMethods[sel.Sel.Name]
	}, func(name string) string {
		return name + " is a cost derived from costmodel.Params: read the target's costmodel.Kernel (Params.Kernel) instead"
	})
}

func checkOneRound(fset *token.FileSet, f *ast.File) []Violation {
	optName := importName(f, optPath)
	return selectorsNamed(fset, f, "one-round", false, nil, func(sel *ast.SelectorExpr) bool {
		return sessionMethods[sel.Sel.Name] || sel.Sel.Name == "NewSession" && pkgSelector(sel, optName)
	}, func(name string) string {
		return "uses " + name + " in " + fleetDir + ": the fleet plans through a canary's core.Runtime (OptimizeOnce), not an optimizer session of its own"
	})
}

func checkOneDeploy(fset *token.FileSet, f *ast.File) []Violation {
	return selectorsNamed(fset, f, "one-deploy", false, nil, func(sel *ast.SelectorExpr) bool { return deviceMethods[sel.Sel.Name] }, func(name string) string {
		return "uses " + name + " outside " + deployDir + "/" + deployFile + ": a program reaches the device through deployLocked, which proves, gates and stages it"
	})
}

func checkOneExit(fset *token.FileSet, f *ast.File) []Violation {
	return selectorsNamed(fset, f, "one-exit", false, func(fn string) bool { return fn == finishFunc }, func(sel *ast.SelectorExpr) bool { return roundPolicy[sel.Sel.Name] }, func(name string) string {
		return "uses " + name + " outside " + finishFunc + ": a round ends through finishLocked, the one place round policy lives"
	})
}

func checkSerial(fset *token.FileSet, f *ast.File) []Violation {
	var out []Violation
	report := func(pos token.Pos, what string) {
		out = append(out, Violation{
			Pos:  fset.Position(pos),
			Rule: "serial-search",
			Msg:  what + " in " + serialDir + ": a search runs on its caller's goroutine, and nothing inside a session is shared with a second one",
		})
	}
	for _, imp := range f.Imports {
		if path, err := strconv.Unquote(imp.Path.Value); err == nil && path == "sync/atomic" {
			report(imp.Pos(), "imports sync/atomic")
		}
	}
	syncName := importName(f, "sync")
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			report(n.Pos(), "go statement")
		case *ast.SelectorExpr:
			if id, ok := n.X.(*ast.Ident); ok && syncName != "" && id.Name == syncName && id.Obj == nil && sharingPrimitives[n.Sel.Name] {
				report(n.Pos(), "uses sync."+n.Sel.Name)
			}
		}
		return true
	})
	return out
}

func checkDeterminism(fset *token.FileSet, f *ast.File, r determinismRule) []Violation {
	var out []Violation
	for _, imp := range f.Imports {
		if path, err := strconv.Unquote(imp.Path.Value); err == nil && (path == "math/rand" || path == "math/rand/v2") {
			out = append(out, Violation{
				Pos:  fset.Position(imp.Pos()),
				Rule: "determinism",
				Msg:  fmt.Sprintf("imports %s (ambient RNG): %s; use internal/stats.RNG with an explicit seed", path, r.Why),
			})
		}
	}
	timeName := importName(f, "time")
	if timeName == "" {
		return out
	}
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Now" {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == timeName && id.Obj == nil {
			out = append(out, Violation{
				Pos:  fset.Position(sel.Pos()),
				Rule: "determinism",
				Msg:  fmt.Sprintf("calls time.Now: %s; use the virtual clock or a caller-supplied timestamp", r.Why),
			})
		}
		return true
	})
	return out
}
