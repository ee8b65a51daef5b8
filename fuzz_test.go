package pipeleon

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Every native fuzz target of the module gets engine time: `make fuzz`
// runs each func Fuzz* in its package, one line per target, and names no
// target that is gone.
func TestMakeFuzzRunsEveryTarget(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{} // "./dir/ FuzzName"
	for _, m := range regexp.MustCompile(`-fuzz '\^(Fuzz\w+)\$\$' -fuzztime \$\(FUZZTIME\) (\S+)`).FindAllStringSubmatch(string(mk), -1) {
		listed[m[2]+" "+m[1]] = true
	}
	found := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (path == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
			return fs.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Fuzz") {
				found["./"+filepath.ToSlash(filepath.Dir(path))+"/ "+fd.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(found) == 0 {
		t.Fatal("no fuzz targets found")
	}
	for target := range found {
		if !listed[target] {
			t.Errorf("make fuzz does not run %s", target)
		}
	}
	for target := range listed {
		if !found[target] {
			t.Errorf("make fuzz runs %s, which no test file declares", target)
		}
	}
}
