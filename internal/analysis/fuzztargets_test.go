package analysis_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// makefileFuzzTargets returns the Makefile's FUZZ_TARGETS entries
// (package-dir:FuzzName), following backslash continuation lines.
func makefileFuzzTargets(t *testing.T, root string) map[string]bool {
	t.Helper()
	f, err := os.Open(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var value string
	inList := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !inList {
			name, rest, ok := strings.Cut(line, "=")
			if !ok || strings.TrimSpace(name) != "FUZZ_TARGETS" {
				continue
			}
			inList, line = true, rest
		}
		body, more := strings.CutSuffix(strings.TrimRight(line, " \t"), `\`)
		value += " " + body
		if !more {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !inList {
		t.Fatal("Makefile defines no FUZZ_TARGETS list")
	}
	targets := make(map[string]bool)
	for _, entry := range strings.Fields(value) {
		if targets[entry] {
			t.Errorf("FUZZ_TARGETS lists %s twice", entry)
		}
		targets[entry] = true
	}
	return targets
}

// isFuzzTarget reports whether fn is a `func FuzzX(*testing.F)` the go tool
// would run with -fuzz.
func isFuzzTarget(fn *ast.FuncDecl) bool {
	if fn.Recv != nil || !strings.HasPrefix(fn.Name.Name, "Fuzz") || len(fn.Type.Params.List) != 1 {
		return false
	}
	star, ok := fn.Type.Params.List[0].Type.(*ast.StarExpr)
	if !ok {
		return false
	}
	sel, ok := star.X.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "F" {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "testing"
}

// TestFuzzTargetsListed keeps `make fuzz` and `make fuzz-short` complete:
// every fuzz target in the module's *_test.go files must appear in the
// Makefile's FUZZ_TARGETS list, and every listed entry must name one.
func TestFuzzTargetsListed(t *testing.T) {
	root := moduleRoot(t)
	listed := makefileFuzzTargets(t, root)
	found := make(map[string]bool)
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && isFuzzTarget(fn) {
				found[filepath.ToSlash(rel)+":"+fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(found) == 0 {
		t.Fatal("found no fuzz targets in the module")
	}
	for target := range found {
		if !listed[target] {
			t.Errorf("fuzz target %s is missing from the Makefile's FUZZ_TARGETS", target)
		}
	}
	for target := range listed {
		if !found[target] {
			t.Errorf("FUZZ_TARGETS lists %s, which is no fuzz target", target)
		}
	}
}
