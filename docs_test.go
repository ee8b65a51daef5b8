package pipeleon

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The design documents — DESIGN.md, README.md, EXPERIMENTS.md — name only
// what exists. Every backticked qualified identifier — `pkg.Name`,
// `pkg.Type.Member`, `Type.Member` — whose package or exported type the
// module declares resolves to a declaration in it. A member is a method or
// a field, promoted ones included. A file name (`trace.go`), a metric
// (`nicsim.swap_ms`) or a key the module spells as a string
// (`pipeleon.tier`) is no identifier. Every backticked `Test…`,
// `Benchmark…` or `Fuzz…` name, less a `/sub` suffix, is a function some
// _test.go file declares; a pattern (a name holding `<`) is not a name.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	pkgs, types, names := map[string]bool{}, map[string][]string{}, map[string]bool{}
	members, embeds := map[string][]string{}, map[string][]string{} // by "pkg.Type"
	tests := map[string]bool{}
	walkModule(t, func(path string, _ []byte, f *ast.File) {
		pkg := f.Name.Name
		if strings.HasSuffix(path, "_test.go") {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
					tests[fd.Name.Name] = true
				}
			}
		}
		pkgs[pkg] = true
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BasicLit:
				if s, err := strconv.Unquote(n.Value); err == nil && n.Kind == token.STRING {
					names[s] = true
				}
			case *ast.FuncDecl:
				if n.Recv == nil {
					names[pkg+"."+n.Name.Name] = true
				} else {
					recv := pkg + "." + baseTypeName(n.Recv.List[0].Type)
					members[recv] = append(members[recv], n.Name.Name)
				}
			case *ast.ValueSpec:
				for _, id := range n.Names {
					names[pkg+"."+id.Name] = true
				}
			case *ast.TypeSpec:
				key := pkg + "." + n.Name.Name
				names[key], types[n.Name.Name] = true, append(types[n.Name.Name], key)
				var fields []*ast.Field
				switch ty := n.Type.(type) {
				case *ast.StructType:
					fields = ty.Fields.List
				case *ast.InterfaceType:
					fields = ty.Methods.List
				default: // an alias or a defined type has its base's members
					embeds[key] = append(embeds[key], baseTypeName(ty))
				}
				for _, field := range fields {
					for _, id := range field.Names {
						members[key] = append(members[key], id.Name)
					}
					if len(field.Names) == 0 {
						embeds[key] = append(embeds[key], baseTypeName(field.Type))
					}
				}
			}
			return true
		})
	})
	var promote func(key, into string, seen map[string]bool)
	promote = func(key, into string, seen map[string]bool) {
		seen[key] = true
		for _, m := range members[key] {
			names[into+"."+m], names[into[strings.Index(into, ".")+1:]+"."+m] = true, true
		}
		for _, emb := range embeds[key] {
			for _, inner := range types[emb] {
				if !seen[inner] {
					promote(inner, into, seen)
				}
			}
		}
	}
	for _, keys := range types {
		for _, key := range keys {
			promote(key, key, map[string]bool{})
		}
	}

	span := regexp.MustCompile("`([^`\n]+)`")
	// A leading dotted identifier that does not go on as a path.
	qualified := regexp.MustCompile(`^([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:$|[^\w./-])`)
	testName := regexp.MustCompile(`^((?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*)(?:$|/)`)
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range span.FindAllStringSubmatch(line, -1) {
				if tn := testName.FindStringSubmatch(m[1]); tn != nil && !strings.Contains(m[1], "<") && !tests[tn[1]] {
					t.Errorf("%s:%d: `%s` names no test, benchmark or fuzz target of the module", doc, i+1, m[1])
				}
				q := qualified.FindStringSubmatch(m[1])
				if q == nil || names[q[1]] || strings.Contains(q[1], "_") {
					continue
				}
				parts := strings.Split(q[1], ".")
				switch {
				case slices.Contains([]string{"go", "json", "md", "p4", "txt", "sh", "dot", "mod"}, parts[len(parts)-1]):
				case pkgs[parts[0]] && (len(parts) < 4 || !names[strings.Join(parts[:3], ".")]),
					ast.IsExported(parts[0]) && types[parts[0]] != nil && !names[parts[0]+"."+parts[1]]:
					t.Errorf("%s:%d: `%s` names nothing the module declares", doc, i+1, q[1])
				}
			}
		}
	}
}

// baseTypeName strips pointers, type arguments and a package qualifier:
// *pkg.T[K] → T.
func baseTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel.Name
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// walkModule calls fn on every Go file of the root module, parsed; bench/
// is a module of its own.
func walkModule(t *testing.T, fn func(path string, src []byte, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path == "bench":
			return fs.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		fn(path, src, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
