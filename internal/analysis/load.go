package analysis

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/parallel"
)

// Package is one loaded, type-checked package ready for analysis. Only
// non-test files are loaded: test files are exempt from every contract the
// suite enforces.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// The whole process shares one FileSet so that the source importer (which
// type-checks stdlib dependencies from $GOROOT/src) and every loaded or
// fixture package agree on positions.
var (
	sharedFset     = token.NewFileSet()
	sourceImporter types.Importer
	importerOnce   sync.Once
	importerMu     sync.Mutex
)

// stdlibImport resolves an import from $GOROOT source. The source importer
// caches internally but is not safe for concurrent use, so calls are
// serialized; loading itself is sequential anyway (packages are checked in
// dependency order).
func stdlibImport(path string) (*types.Package, error) {
	importerOnce.Do(func() {
		sourceImporter = importer.ForCompiler(sharedFset, "source", nil)
	})
	importerMu.Lock()
	defer importerMu.Unlock()
	return sourceImporter.Import(path)
}

// chainImporter resolves module-internal imports from already-checked
// packages and everything else (the stdlib) from source.
type chainImporter struct {
	known map[string]*types.Package
}

func (ci *chainImporter) Import(path string) (*types.Package, error) {
	if pkg := ci.known[path]; pkg != nil {
		return pkg, nil
	}
	return stdlibImport(path)
}

// newInfo allocates the types.Info maps the analyzers rely on.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Imports    []string
	Error      *struct{ Err string }
}

// Load enumerates the packages matched by patterns (go list syntax, e.g.
// "./...") under dir, parses their non-test files, and type-checks them in
// dependency order. It is the production driver behind cmd/smoothoplint and
// needs only the stdlib toolchain: `go list` for package discovery and the
// source importer for stdlib dependencies.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	order, err := topoSort(listed)
	if err != nil {
		return nil, err
	}
	ci := &chainImporter{known: make(map[string]*types.Package)}
	var pkgs []*Package
	for _, path := range order {
		lp := listed[path]
		if len(lp.GoFiles) == 0 {
			continue // test-only package
		}
		files := make([]*ast.File, len(lp.GoFiles))
		for i, name := range lp.GoFiles {
			f, err := parser.ParseFile(sharedFset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("analysis: parsing %s: %w", name, err)
			}
			files[i] = f
		}
		pkg, err := check(path, files, ci.known)
		if err != nil {
			return nil, err
		}
		ci.known[path] = pkg.Types
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// goList shells out to the go tool for module-aware package discovery.
func goList(dir string, patterns []string) (map[string]*listedPackage, error) {
	args := append([]string{"list", "-json=ImportPath,Dir,GoFiles,Imports,Error", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("analysis: go list: %w\n%s", err, stderr.String())
	}
	listed := make(map[string]*listedPackage)
	dec := json.NewDecoder(&stdout)
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %w", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("analysis: package %s: %s", lp.ImportPath, lp.Error.Err)
		}
		listed[lp.ImportPath] = &lp
	}
	return listed, nil
}

// topoSort orders the listed packages so every intra-set import precedes
// its importers (stdlib imports resolve through the source importer and
// impose no ordering).
func topoSort(listed map[string]*listedPackage) ([]string, error) {
	paths := make([]string, 0, len(listed))
	for path := range listed {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	const (
		visiting = 1
		done     = 2
	)
	state := make(map[string]int, len(paths))
	var order []string
	var visit func(path string) error
	visit = func(path string) error {
		switch state[path] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("analysis: import cycle through %s", path)
		}
		state[path] = visiting
		for _, imp := range listed[path].Imports {
			if _, ok := listed[imp]; ok {
				if err := visit(imp); err != nil {
					return err
				}
			}
		}
		state[path] = done
		order = append(order, path)
		return nil
	}
	for _, path := range paths {
		if err := visit(path); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// check type-checks one package whose files are already parsed, resolving
// imports first against deps and then against the stdlib source importer.
func check(path string, files []*ast.File, deps map[string]*types.Package) (*Package, error) {
	info := newInfo()
	conf := types.Config{Importer: &chainImporter{known: deps}}
	tpkg, err := conf.Check(path, sharedFset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Fset: sharedFset, Files: files, Types: tpkg, Info: info}, nil
}

// LoadSource parses and type-checks one package from in-memory sources
// (file name → content), resolving imports against deps and then the
// stdlib. It backs the analyzer fixture tests.
func LoadSource(path string, sources map[string]string, deps ...*Package) (*Package, error) {
	known := make(map[string]*types.Package, len(deps))
	for _, dep := range deps {
		known[dep.Path] = dep.Types
	}
	names := make([]string, 0, len(sources))
	for name := range sources {
		names = append(names, name)
	}
	sort.Strings(names)
	files := make([]*ast.File, len(names))
	for i, name := range names {
		f, err := parser.ParseFile(sharedFset, name, sources[name], parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: parsing %s: %w", name, err)
		}
		files[i] = f
	}
	return check(path, files, known)
}

// analyzePackages fans the per-package analysis out over the repository's
// own worker pool; each index writes only its own state, so diagnostics are
// identical at any worker count.
func analyzePackages(pkgs []*Package, fn func(i int)) {
	_ = parallel.ForEach(context.Background(), len(pkgs), 0, func(i int) error {
		fn(i)
		return nil
	})
}
