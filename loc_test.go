package pipeleon

import (
	"bytes"
	"go/ast"
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
	walkModule(t, func(path string, src []byte, f *ast.File) {
		kind := "root"
		if strings.HasSuffix(path, "_test.go") {
			kind = "tests"
		}
		lines[kind] += bytes.Count(src, []byte{'\n'})
		if kind == "root" && strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() {
					lines["exports"]++
				}
			}
		}
	})
	for _, kind := range []string{"root", "tests", "exports"} {
		if want, ok := budget[kind]; !ok {
			t.Errorf("testdata/loc_budget.txt has no %q line", kind)
		} else if lines[kind] > want {
			t.Errorf("%s: %d, over the budget of %d; cut, or raise the budget and say why in CHANGES.md",
				kind, lines[kind], want)
		}
	}
}
