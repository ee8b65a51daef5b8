package pipeleon

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The line target binds: the root module's non-test Go lines and its test
// lines — what `make loc` prints, the nested bench/ module left out — and
// the exported functions and methods declared in non-test files under
// internal/ stay within the budget in testdata/loc_budget.txt. A change
// that needs more raises the number there, and its CHANGES.md entry says
// by how much and why.
func TestLineBudget(t *testing.T) {
	data, err := os.ReadFile("testdata/loc_budget.txt")
	if err != nil {
		t.Fatal(err)
	}
	budget := map[string]int{}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) > 0 && !strings.HasPrefix(f[0], "#") {
			if len(f) != 2 {
				t.Fatalf("budget line %q: want a name and a number", line)
			}
			if budget[f[0]], err = strconv.Atoi(f[1]); err != nil {
				t.Fatalf("budget line %q: %v", line, err)
			}
		}
	}
	lines := map[string]int{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
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
		kind := "root"
		if strings.HasSuffix(path, "_test.go") {
			kind = "tests"
		}
		lines[kind] += bytes.Count(src, []byte{'\n'})
		if kind == "root" && strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			f, err := parser.ParseFile(token.NewFileSet(), path, src, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() {
					lines["exports"]++
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"root", "tests", "exports"} {
		if want, ok := budget[kind]; !ok {
			t.Errorf("testdata/loc_budget.txt has no %q line", kind)
		} else if lines[kind] > want {
			t.Errorf("%s: %d, over the budget of %d; cut, or raise the budget and say why in CHANGES.md",
				kind, lines[kind], want)
		}
	}
}
