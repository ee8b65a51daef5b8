package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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
	"ReachProbs": true, "ReachProbsAlong": true, "ActionProb": true, "DropProb": true, "BranchProb": true,
	"NodeLatency": true, "TableLatency": true,
}

const costViewDir, costViewFile, roundDir = "internal/opt", "estimate.go", "internal/core"

// proofPrimitives are internal/analysis's proof constructors and one-shot
// proofs. Outside that package nothing composes them: analysis.Verifier
// does, once, and every other layer asks it (or an analysis.Gate over it).
// A second composition is how the wire gate once kept a baseline the
// search's verifier had long since learned to refresh. The root façade
// re-exports the one-shot forms for library users and is the exception.
var proofPrimitives = map[string]bool{
	"NewRewriteChecker": true, "NewSemanticChecker": true,
	"VerifyRewrite": true, "VerifySemantics": true,
}

const analysisDir, analysisPath, facadeFile = "internal/analysis", "pipeleon/internal/analysis", "pipeleon.go"

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
// read by one: live-knob counts them as users of a Config field.
func lintModule(root string) ([]Violation, error) {
	var out []Violation
	fset := token.NewFileSet()
	for _, r := range importRules {
		vs, err := lintDir(fset, filepath.Join(root, r.Dir), nil, func(f *ast.File) []Violation {
			return checkImports(fset, f, r)
		})
		if err != nil {
			return nil, err
		}
		out = append(out, vs...)
	}
	for _, r := range determinismRules {
		r := r
		vs, err := lintDir(fset, filepath.Join(root, r.Dir), r.Match, func(f *ast.File) []Violation {
			return checkDeterminism(fset, f, r)
		})
		if err != nil {
			return nil, err
		}
		out = append(out, vs...)
	}
	for _, r := range tierNameRules {
		r := r
		vs, err := lintDir(fset, filepath.Join(root, r.Dir), nil, func(f *ast.File) []Violation {
			return checkTierNames(fset, f, r)
		})
		if err != nil {
			return nil, err
		}
		out = append(out, vs...)
	}
	notView := func(base string) bool { return base != costViewFile }
	for dir, match := range map[string]func(string) bool{costViewDir: notView, roundDir: nil} {
		vs, err := lintDir(fset, filepath.Join(root, dir), match, func(f *ast.File) []Violation {
			return checkCostView(fset, f)
		})
		if err != nil {
			return nil, err
		}
		out = append(out, vs...)
	}
	vs, err := lintDir(fset, filepath.Join(root, serialDir), nil, func(f *ast.File) []Violation {
		return checkSerial(fset, f)
	})
	if err != nil {
		return nil, err
	}
	out = append(out, vs...)
	for _, dir := range kernelDirs {
		vs, err := lintDir(fset, filepath.Join(root, dir), nil, func(f *ast.File) []Violation {
			return checkKernel(fset, f)
		})
		if err != nil {
			return nil, err
		}
		out = append(out, vs...)
	}
	vs, err = lintDiagCodes(fset, root)
	if err != nil {
		return nil, err
	}
	out = append(out, vs...)
	vs, err = lintOneVerifier(fset, root)
	if err != nil {
		return nil, err
	}
	out = append(out, vs...)
	vs, err = lintLiveKnobs(fset, root)
	if err != nil {
		return nil, err
	}
	out = append(out, vs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		return out[i].Pos.Line < out[j].Pos.Line
	})
	return out, nil
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
// (PLxxx structural/symbolic lint, RWxxx rewrite proofs, SExxx semantic
// equivalence). Each code is the contract between the analyzer and
// everything that filters on it (CI, the deploy gate, operators reading
// round reports), so two rules apply module-wide: a code is declared by
// exactly one constant, and every declared code has a row in the root
// DESIGN.md diagnostics table (rendered there as `CODE` in backticks).
var diagCodeRE = regexp.MustCompile(`^(PL|RW|SE)[0-9]{3}$`)

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
	walkErr := walkModule(fset, root, false, func(_ string, f *ast.File) {
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

// walkModule parses every .go file of the module rooted at root — test
// files only when tests is set — and hands it to visit with its path.
// Fixture trees under testdata, dot directories and nested modules (bench/)
// are not part of the module's code-facing surface.
func walkModule(fset *token.FileSet, root string, tests bool, visit func(path string, f *ast.File)) error {
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
		if base := d.Name(); !strings.HasSuffix(base, ".go") || (!tests && strings.HasSuffix(base, "_test.go")) {
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

// lintOneVerifier reports each use of a proof primitive outside
// internal/analysis and the root façade file.
func lintOneVerifier(fset *token.FileSet, root string) ([]Violation, error) {
	var out []Violation
	owner := filepath.Join(root, analysisDir) + string(filepath.Separator)
	err := walkModule(fset, root, false, func(path string, f *ast.File) {
		if !strings.HasPrefix(path, owner) && path != filepath.Join(root, facadeFile) {
			out = append(out, checkOneVerifier(fset, f)...)
		}
	})
	return out, err
}

// knobFile declares opt.Config, the optimizer's tunables. A field nothing
// sets is not a tunable: it is a constant that a Config literal built
// without DefaultConfig silently zeroes (six such fields once priced every
// cache at hit rate 0 for whoever wrote opt.Config{...}). So every exported
// field must be set somewhere in the module outside this file — assigned
// through a selector (cfg.F = v) or keyed in a composite literal. For this
// rule alone test files count as users: a knob only a test turns is still
// turned. The match is by field name, as syntactic as the other rules: a
// same-named field of another struct counts too.
const knobFile, knobType = "internal/opt/config.go", "Config"

func lintLiveKnobs(fset *token.FileSet, root string) ([]Violation, error) {
	decl := filepath.Join(root, knobFile)
	fields, set := map[string]token.Pos{}, map[string]bool{}
	err := walkModule(fset, root, true, func(path string, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				if st, ok := n.Type.(*ast.StructType); ok && path == decl && n.Name.Name == knobType {
					for _, fld := range st.Fields.List {
						for _, name := range fld.Names {
							if name.IsExported() {
								fields[name.Name] = name.Pos()
							}
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok && path != decl {
						set[sel.Sel.Name] = true
					}
				}
			case *ast.KeyValueExpr:
				if key, ok := n.Key.(*ast.Ident); ok && path != decl {
					set[key.Name] = true
				}
			}
			return true
		})
	})
	var out []Violation
	for name, pos := range fields {
		if !set[name] {
			out = append(out, Violation{
				Pos:  fset.Position(pos),
				Rule: "live-knob",
				Msg: fmt.Sprintf("%s.%s is set nowhere outside %s: make it an unexported constant, or delete it",
					knobType, name, knobFile),
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

func checkOneVerifier(fset *token.FileSet, f *ast.File) []Violation {
	var out []Violation
	pkgName := importName(f, analysisPath)
	if pkgName == "" {
		return out
	}
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || !proofPrimitives[sel.Sel.Name] {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == pkgName && id.Obj == nil {
			out = append(out, Violation{
				Pos:  fset.Position(sel.Pos()),
				Rule: "one-verifier",
				Msg: fmt.Sprintf("uses %s.%s outside %s: ask an analysis.Verifier (or an analysis.Gate over one) instead of composing proof tiers again",
					pkgName, sel.Sel.Name, analysisDir),
			})
		}
		return true
	})
	return out
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

func checkCostView(fset *token.FileSet, f *ast.File) []Violation {
	var out []Violation
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && costDerivations[sel.Sel.Name] {
			out = append(out, Violation{
				Pos:  fset.Position(sel.Pos()),
				Rule: "one-estimator",
				Msg: fmt.Sprintf("calls %s outside %s/%s: read the quantity from the cost view (opt.Evaluator, opt.Session.Observe) instead of deriving it again",
					sel.Sel.Name, costViewDir, costViewFile),
			})
		}
		return true
	})
	return out
}

func checkKernel(fset *token.FileSet, f *ast.File) []Violation {
	var out []Violation
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && (latencyTermRE.MatchString(sel.Sel.Name) || kernelMethods[sel.Sel.Name]) {
			out = append(out, Violation{
				Pos:  fset.Position(sel.Pos()),
				Rule: "one-kernel",
				Msg:  sel.Sel.Name + " is a cost derived from costmodel.Params: read the target's costmodel.Kernel (Params.Kernel) instead",
			})
		}
		return true
	})
	return out
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
