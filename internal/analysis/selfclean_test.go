package analysis_test

import (
	"errors"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
)

// moduleRoot walks up from the test's working directory to go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test working directory")
		}
		dir = parent
	}
}

var (
	repoOnce sync.Once
	repoPkgs []*analysis.Package
	repoErr  error
)

// loadRepo loads every package of the module the same way cmd/smoothoplint
// does, once per test binary: the self-clean tests share the result.
func loadRepo(t *testing.T) []*analysis.Package {
	t.Helper()
	root := moduleRoot(t)
	repoOnce.Do(func() { repoPkgs, repoErr = analysis.Load(root, "./...") })
	if repoErr != nil {
		t.Fatalf("Load: %v", repoErr)
	}
	if len(repoPkgs) == 0 {
		t.Fatal("Load returned no packages")
	}
	return repoPkgs
}

// TestRepoIsClean is the acceptance gate: the full analyzer suite must pass
// over the repository's own source.
func TestRepoIsClean(t *testing.T) {
	pkgs := loadRepo(t)
	diags := analysis.Analyze(pkgs, analysis.All())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

func TestByName(t *testing.T) {
	all, err := analysis.ByName("")
	if err != nil || len(all) != 7 {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want the full suite of 7", len(all), err)
	}
	sub, err := analysis.ByName("maprange,errfmt")
	if err != nil || len(sub) != 2 {
		t.Fatalf("ByName subset = %v, err %v", sub, err)
	}
	if _, err := analysis.ByName("nope"); err == nil {
		t.Fatal("ByName accepted an unknown analyzer")
	}
}

func TestByNameRejectsDuplicates(t *testing.T) {
	_, err := analysis.ByName("maprange,errfmt,maprange")
	if !errors.Is(err, analysis.ErrDuplicateAnalyzer) {
		t.Fatalf("ByName(dup) err = %v, want ErrDuplicateAnalyzer", err)
	}
	if err == nil || !strings.Contains(err.Error(), "maprange") {
		t.Fatalf("duplicate error should name the analyzer, got %v", err)
	}
}

// TestRepoPackageSetIncludesLinter guards the self-clean gate's coverage:
// the analysis package and the lint CLI must themselves be in the analyzed
// set, so the linter is held to its own contracts.
func TestRepoPackageSetIncludesLinter(t *testing.T) {
	pkgs := loadRepo(t)
	want := map[string]bool{
		"repro/internal/analysis": false,
		"repro/cmd/smoothoplint":  false,
	}
	for _, pkg := range pkgs {
		if _, ok := want[pkg.Path]; ok {
			want[pkg.Path] = true
		}
	}
	for path, seen := range want {
		if !seen {
			t.Errorf("self-clean load set is missing %s", path)
		}
	}
}

func TestIsPipelinePackage(t *testing.T) {
	for path, want := range map[string]bool{
		"repro/internal/score":     true,
		"repro/internal/cluster":   true,
		"repro/internal/plan":      true,
		"repro/cmd/experiments":    true,
		"repro/internal/analysis":  false,
		"repro/internal/detmap":    false,
		"repro/internal/parallel":  false,
		"example.com/other/sim":    true,
		"repro/internal/timeserie": false,
	} {
		if got := analysis.IsPipelinePackage(path); got != want {
			t.Errorf("IsPipelinePackage(%q) = %v, want %v", path, got, want)
		}
	}
}

// keptUncalled lists the exported package-level identifiers and methods
// under repro/internal/ that no non-test code outside repro/bench/
// references but that stay, each with the reason it stays. Everything else
// without a caller is deleted.
var keptUncalled = map[string]string{
	"repro/internal/placement.Verify":                "test oracle shared by the placement and core tests: the tree hosts exactly the given instances, each once",
	"repro/internal/score.Vector":                    "test oracle: the one-shot I-to-S vector that Basis.VectorInto must match",
	"repro/internal/timeseries.Constant":             "test fixture shared by the timeseries, score, sim and workload tests",
	"repro/internal/timeseries.ReadCSV":              "round-trip oracle for WriteCSV, which tracegen and smoothop write",
	"repro/internal/forecast.Evaluate":               "judges the live NextWeek in the forecast-beats-average test",
	"repro/internal/tracestore.Load":                 "reads what the public TraceStore.Save writes; model-based differential testing rebuilds a runtime from it",
	"repro/internal/analysis.LoadSource":             "the analyzer fixture loader: every analyzer test type-checks its fixture through it",
	"repro/internal/score.Differential":              "only bench/ calls it (the admission layer's scoring cost); deleting it or giving it a program caller waits for a benchmark change",
	"repro/internal/metrics.MultiFragmentationRates": "only bench/ calls it (its fragmentation oracle); deleting it or giving it a program caller waits for a benchmark change",

	"repro/internal/core.Runtime.AdmitInstance":             "only bench/ calls it (the shadow's admission re-enactment); it goes with item 1's shadow",
	"repro/internal/core.Runtime.Ingest":                    "only bench/ calls it (per-reading ingest); it goes with item 1's shadow",
	"repro/internal/tracestore.Store.SnapshotQuality":       "only bench/ calls it (the shadow's per-instance read); it goes with item 1's shadow",
	"repro/internal/tracestore.Store.AveragedITraceQuality": "only bench/ calls it (the shadow's per-instance read); it goes with item 1's shadow",
	"repro/internal/powertree.Node.CheckBreakers":           "only bench/ calls it (the breaker output check); it goes with item 1's shadow",
	"repro/internal/core.Runtime.InstanceQuality":           "the root Example and the core tests observe a degraded instance's telemetry grade through it",
	"repro/internal/tracestore.Store.Coverage":              "the tracestore property, fuzz and stress tests observe a ring's coverage through it",
	"repro/internal/tracestore.Store.Instances":             "the tracestore fuzz, stress and checkpoint tests list the stored ids through it",
	"repro/internal/workload.Fleet.PowerFn":                 "the esd and statprof tests resolve a generated fleet's traces through it",
	"repro/internal/timeseries.Series.Sub":                  "the placement remap test forms a leave-one-out sum through it",
	"repro/internal/esd.ShaveResult.Covered":                "the esd doc Example prints the §1 verdict through it",
	"repro/internal/score.Basis.VectorInto":                 "the one-instance entry to the fused kernel Vectors batches: the score tests hold that kernel to the score.Vector oracle and to zero allocations through it",
	"repro/internal/tracestore.Store.Save":                  "the checkpoint writer whose output tracestore.Load reads",
	"repro/internal/timeseries.Series.Resample":             "the downsampling rule ROADMAP item 17 names for paper-rate telemetry",
}

// TestInternalAPIHasCallers keeps uncalled internal API deleted: every
// exported package-level func, type and var under repro/internal/, and every
// exported method of a type declared there, must be referenced from non-test
// code somewhere in the module outside repro/bench/ (an internal package has
// no callers outside it), or be listed in keptUncalled with a reason. A
// reference from inside the identifier's own declaration — a recursive call,
// a type named in its own methods — does not count. A method also passes when
// it implements an interface whose callers reach it without naming it: one
// declared in the module outside repro/bench/, or one of stdlibInterfaces.
// The facade's public API is what some program reaches; a method only tests
// call is not part of it.
func TestInternalAPIHasCallers(t *testing.T) {
	pkgs := loadRepo(t)
	used := make(map[types.Object]bool)
	for _, pkg := range pkgs {
		if isBench(pkg) {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				self := declaredBy(pkg, decl)
				ast.Inspect(decl, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					obj := pkg.Info.Uses[id]
					if fn, ok := obj.(*types.Func); ok {
						obj = fn.Origin()
					}
					if obj != nil && !self[obj] {
						used[obj] = true
					}
					return true
				})
			}
		}
	}
	ifaces := calledThrough(pkgs)
	seen := make(map[string]bool)
	check := func(pkg *analysis.Package, key string, obj types.Object, reached bool) {
		_, kept := keptUncalled[key]
		seen[key] = true
		switch {
		case reached && kept:
			t.Errorf("%s is referenced from non-test code now: drop it from keptUncalled", key)
		case !reached && !kept:
			t.Errorf("%s: exported %s has no reference from non-test code: delete it, or add it to keptUncalled with the reason it stays",
				pkg.Fset.Position(obj.Pos()), key)
		}
	}
	for _, pkg := range pkgs {
		if !strings.HasPrefix(pkg.Path, "repro/internal/") {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			switch obj.(type) {
			case *types.Func, *types.TypeName, *types.Var:
			default:
				continue
			}
			if obj.Exported() {
				check(pkg, pkg.Path+"."+name, obj, used[obj])
			}
			named, ok := obj.Type().(*types.Named)
			if _, isType := obj.(*types.TypeName); !isType || !ok || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() {
					check(pkg, pkg.Path+"."+name+"."+m.Name(), m, used[m] || implementsAny(named, m.Name(), ifaces))
				}
			}
		}
	}
	for key := range keptUncalled {
		if !seen[key] {
			t.Errorf("keptUncalled names %s, which no longer exists", key)
		}
	}
}

// TestDocsNameRealCode: every backquoted Go identifier in DESIGN.md and
// README.md that starts with the name of one of the module's packages
// (pkg.Name, pkg.Type.Method, pkg.Type.Field, …) names something that
// exists: Name in that package's scope, each later part a field or method
// of what the part before it names. Text after the dotted chain (call
// arguments, a slice) is ignored, and so is a chain whose first part is no
// package name (a variable, a file name).
func TestDocsNameRealCode(t *testing.T) {
	byName := make(map[string][]*types.Package)
	for _, pkg := range loadRepo(t) {
		byName[pkg.Types.Name()] = append(byName[pkg.Types.Name()], pkg.Types)
	}
	chain := regexp.MustCompile("`([A-Za-z_][A-Za-z0-9_]*(?:\\.[A-Za-z_][A-Za-z0-9_]*)+)[^`]*`")
	checked := 0
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		text, err := os.ReadFile(filepath.Join(moduleRoot(t), doc))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, m := range chain.FindAllStringSubmatch(line, -1) {
				parts := strings.Split(m[1], ".")
				pkgs, ok := byName[parts[0]]
				if !ok {
					continue
				}
				checked++
				if !slices.ContainsFunc(pkgs, func(p *types.Package) bool { return resolves(p, parts[1:]) }) {
					t.Errorf("%s:%d: `%s` names nothing in package %s", doc, i+1, m[1], parts[0])
				}
			}
		}
	}
	t.Logf("%d package-qualified identifiers checked", checked)
	if checked == 0 {
		t.Fatal("no package-qualified identifier found in the docs: the pattern matches nothing")
	}
}

// resolves reports whether names is a chain of a package-scope object of
// pkg and then fields or methods, each of what the name before it denotes.
func resolves(pkg *types.Package, names []string) bool {
	obj := pkg.Scope().Lookup(names[0])
	for _, name := range names[1:] {
		if obj == nil {
			return false
		}
		if _, ok := obj.(*types.Func); ok {
			return false
		}
		obj, _, _ = types.LookupFieldOrMethod(obj.Type(), true, pkg, name)
	}
	return obj != nil
}

// isBench reports whether pkg belongs to the benchmark harness under
// repro/bench/. Its calls and writes do not count as the program's: the
// benchmark drives the program's layers to time them, so code only it
// reaches has no program caller.
func isBench(pkg *analysis.Package) bool {
	return strings.HasPrefix(pkg.Path, "repro/bench/")
}

// declaredBy returns the package-level objects decl declares; a method
// declaration declares itself and belongs to its receiver's base type.
func declaredBy(pkg *analysis.Package, decl ast.Decl) map[types.Object]bool {
	self := make(map[types.Object]bool)
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			self[pkg.Info.Defs[d.Name]] = true
			break
		}
		if fn, ok := pkg.Info.Defs[d.Name].(*types.Func); ok {
			self[fn] = true
			recv := fn.Type().(*types.Signature).Recv().Type()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			if named, ok := recv.(*types.Named); ok {
				self[named.Obj()] = true
			}
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				self[pkg.Info.Defs[s.Name]] = true
			case *ast.ValueSpec:
				for _, name := range s.Names {
					self[pkg.Info.Defs[name]] = true
				}
			}
		}
	}
	return self
}

// stdlibInterfaces lists the standard-library interfaces, by package path
// and name, through which the standard library calls a module type's
// methods without naming them: fmt prints a Stringer, encoding/json runs the
// codecs, go/types resolves imports. error is always included.
var stdlibInterfaces = []string{
	"fmt.Stringer",
	"encoding/json.Marshaler",
	"encoding/json.Unmarshaler",
	"go/types.Importer",
}

// calledThrough returns the interfaces a method can be reached through
// without being named: every non-generic interface type declared at package
// level in the module outside repro/bench/, error, and those of
// stdlibInterfaces that the module imports.
func calledThrough(pkgs []*analysis.Package) []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	add := func(obj types.Object) {
		tn, ok := obj.(*types.TypeName)
		if !ok {
			return
		}
		if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
			return
		}
		if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
			ifaces = append(ifaces, iface)
		}
	}
	imported := make(map[string]*types.Package)
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if _, ok := imported[p.Path()]; ok {
			return
		}
		imported[p.Path()] = p
		for _, dep := range p.Imports() {
			walk(dep)
		}
	}
	for _, pkg := range pkgs {
		walk(pkg.Types)
		if isBench(pkg) {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			add(scope.Lookup(name))
		}
	}
	for _, qualified := range stdlibInterfaces {
		dot := strings.LastIndex(qualified, ".")
		if p, ok := imported[qualified[:dot]]; ok {
			add(p.Scope().Lookup(qualified[dot+1:]))
		}
	}
	return ifaces
}

// implementsAny reports whether named, or a pointer to it, implements one
// of ifaces that has a method called method.
func implementsAny(named *types.Named, method string, ifaces []*types.Interface) bool {
	ptr := types.NewPointer(named)
	for _, iface := range ifaces {
		declares := false
		for i := 0; i < iface.NumMethods(); i++ {
			declares = declares || iface.Method(i).Name() == method
		}
		if declares && (types.Implements(named, iface) || types.Implements(ptr, iface)) {
			return true
		}
	}
	return false
}

// keptUnset lists the exported option fields under repro/internal/ that
// non-test code reads but never sets outside repro/bench/ and that stay,
// each with the reason it stays. Every other such field is a switch no program moves: fold it into a
// constant beside its one use.
var keptUnset = map[string]string{
	"repro/internal/core.Config.ClustersPerChild":  "the paper's h/q (§3.5): the perturbation the h/q sensitivity gate must catch",
	"repro/internal/placement.PolicyConfig.Custom": "the seam through which the online, ledger and policy tests substitute instrumented policies",
	"repro/internal/placement.RemapConfig.Policy":  "only bench/ sets it (the remap layer under a workload's policy); deleting it or giving it a program setter waits for a benchmark change",
	"repro/internal/core.RuntimeConfig.Placement":  "only bench/ sets it (each workload's admission policy); deleting it or giving it a program setter waits for a benchmark change",
}

// TestOptionsHaveSetters keeps unset options deleted: every exported,
// non-embedded field of an exported struct under repro/internal/ that
// non-test code reads must also be written by non-test code outside
// repro/bench/, or be listed in keptUnset with a reason. Reads and writes
// are those fieldAccesses counts. Fields with a json tag are exempt:
// decoders write them.
func TestOptionsHaveSetters(t *testing.T) {
	pkgs := loadRepo(t)
	read, written := fieldAccesses(pkgs)
	seen := make(map[string]bool)
	eachField(pkgs, func(pkg *analysis.Package, key string, field *types.Var) {
		_, kept := keptUnset[key]
		seen[key] = true
		unset := read[field] && !written[field]
		switch {
		case kept && !unset:
			t.Errorf("%s is no longer read-but-unset: drop it from keptUnset", key)
		case unset && !kept:
			t.Errorf("%s: option %s is read but never set by non-test code: fold it into a constant, or add it to keptUnset with the reason it stays",
				pkg.Fset.Position(field.Pos()), key)
		}
	})
	for key := range keptUnset {
		if !seen[key] {
			t.Errorf("keptUnset names %s, which no longer exists", key)
		}
	}
}

// keptUnread lists the exported result fields under repro/internal/ that no
// non-test code outside repro/bench/ reads but that stay, each with the
// reason it stays. Every other such field is work no program looks at:
// delete it, and the code that only fills it.
var keptUnread = map[string]string{
	"repro/internal/forecast.Accuracy.MAPE":                  "part of what the kept forecast.Evaluate returns; the forecast tests check it",
	"repro/internal/forecast.Accuracy.RMSE":                  "part of what the kept forecast.Evaluate returns; the forecast tests check it",
	"repro/internal/forecast.Accuracy.PeakErrorPct":          "part of what the kept forecast.Evaluate returns; the forecast tests check it",
	"repro/internal/tracestore.Quality.InterpolatedFraction": "one of DESIGN.md's documented Quality fields; the grading property test checks it against the store's gap interpolation",
	"repro/internal/workload.ServicePower.Instances":         "tracegen -format json encodes it",
}

// TestOutputsHaveReaders keeps unread results deleted: every exported,
// non-embedded field of an exported struct under repro/internal/ must be
// read by non-test code outside repro/bench/, or be listed in keptUnread
// with a reason. Reads are those fieldAccesses counts. Fields with a json
// tag are exempt: encoders read them. An untagged field of a struct some
// program encodes by reflection is read too, but no selector shows it: it
// needs a keptUnread entry or a json tag.
func TestOutputsHaveReaders(t *testing.T) {
	pkgs := loadRepo(t)
	read, _ := fieldAccesses(pkgs)
	seen := make(map[string]bool)
	eachField(pkgs, func(pkg *analysis.Package, key string, field *types.Var) {
		_, kept := keptUnread[key]
		seen[key] = true
		switch {
		case kept && read[field]:
			t.Errorf("%s is read by non-test code now: drop it from keptUnread", key)
		case !read[field] && !kept:
			t.Errorf("%s: field %s is never read by non-test code: delete it, or add it to keptUnread with the reason it stays",
				pkg.Fset.Position(field.Pos()), key)
		}
	})
	for key := range keptUnread {
		if !seen[key] {
			t.Errorf("keptUnread names %s, which no longer exists", key)
		}
	}
}

// fieldAccesses returns the struct fields that non-test code outside
// repro/bench/ reads and writes. A read is a field selector that is not a
// write target. A write is a key in a keyed composite literal, an unkeyed
// literal of the struct, the target of an assignment or ++/--, or the
// operand of &.
func fieldAccesses(pkgs []*analysis.Package) (read, written map[*types.Var]bool) {
	read = make(map[*types.Var]bool)
	written = make(map[*types.Var]bool)
	for _, pkg := range pkgs {
		if isBench(pkg) {
			continue
		}
		for _, f := range pkg.Files {
			targets := writeTargets(f)
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					sel := pkg.Info.Selections[n]
					if sel == nil || sel.Kind() != types.FieldVal {
						break
					}
					field := sel.Obj().(*types.Var).Origin()
					if targets[n] {
						written[field] = true
					} else {
						read[field] = true
					}
				case *ast.CompositeLit:
					st, ok := pkg.Info.Types[n].Type.Underlying().(*types.Struct)
					if !ok || len(n.Elts) == 0 {
						break
					}
					if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
						for i := 0; i < st.NumFields(); i++ {
							written[st.Field(i).Origin()] = true
						}
						break
					}
					for _, elt := range n.Elts {
						key, _ := elt.(*ast.KeyValueExpr).Key.(*ast.Ident)
						if field, ok := pkg.Info.Uses[key].(*types.Var); ok {
							written[field.Origin()] = true
						}
					}
				}
				return true
			})
		}
	}
	return read, written
}

// eachField calls fn with every exported, non-embedded field without a json
// tag of an exported struct type under repro/internal/, keyed
// path.Type.Field.
func eachField(pkgs []*analysis.Package, fn func(pkg *analysis.Package, key string, field *types.Var)) {
	for _, pkg := range pkgs {
		if !strings.HasPrefix(pkg.Path, "repro/internal/") {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				field := st.Field(i)
				if !field.Exported() || field.Embedded() {
					continue
				}
				if _, decoded := reflect.StructTag(st.Tag(i)).Lookup("json"); decoded {
					continue
				}
				fn(pkg, pkg.Path+"."+name+"."+field.Name(), field)
			}
		}
	}
}

// writeTargets returns the expressions f writes to: assignment and range
// targets, ++/-- operands and the operands of &, each with any parentheses
// stripped.
func writeTargets(f *ast.File) map[ast.Expr]bool {
	targets := make(map[ast.Expr]bool)
	mark := func(e ast.Expr) {
		if e != nil {
			targets[ast.Unparen(e)] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				mark(lhs)
			}
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				mark(n.Key)
				mark(n.Value)
			}
		case *ast.IncDecStmt:
			mark(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				mark(n.X)
			}
		}
		return true
	})
	return targets
}
