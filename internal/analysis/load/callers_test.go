package load_test

import (
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis/load"
)

// keep names the functions the caller rule lets stand without a caller,
// each with its reason, keyed as funcKey spells them.
var keep = map[string]string{
	"repro/internal/telemetry.Counter.Value":    "other packages' tests read a counter through it",
	"repro/internal/telemetry.Gauge.Value":      "other packages' tests read a gauge through it",
	"repro/internal/telemetry.Histogram.Count":  "other packages' tests read a histogram through it",
	"repro/internal/telemetry.Histogram.Sum":    "other packages' tests read a histogram through it",
	"repro/internal/core.ZoneRelStdDevs":        "the exact side of the estimator ledger (ROADMAP item 5)",
	"repro/internal/core.Controller.Grid":       "the grid a StatusReply will carry (ROADMAP item 1(b))",
	"repro/internal/store.Store.Sync":           "a durability flush: safety code a caller may need at any time",
	"repro/internal/coordinator.Server.OpsAddr": "tests bind the ops plane to :0 and read the address back",
}

// testCode reports whether a package is test support: its functions need
// no caller of their own, and its calls do not count as callers.
func testCode(path string) bool {
	return strings.HasSuffix(path, "/tracetest") || strings.HasSuffix(path, "/analysistest")
}

// TestEveryFunctionHasACaller holds the module to one rule: an exported
// function or method has a caller outside _test.go files (bench/, cmd/ and
// examples/ count; tracetest and analysistest do not), and an unexported
// one has a caller somewhere, an in-package test included. A method that
// satisfies an interface's method of its name is exempt, as is each name
// in keep.
func TestEveryFunctionHasACaller(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module")
	}
	modDir, modPath, err := load.FindModule()
	if err != nil {
		t.Fatal(err)
	}
	ld := load.New()
	ld.ModulePath, ld.ModuleDir, ld.IncludeTests = modPath, modDir, true
	var pkgs []*load.Package
	err = filepath.WalkDir(modDir, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != modDir && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		if m, _ := filepath.Glob(filepath.Join(path, "*.go")); len(m) == 0 {
			return nil
		}
		rel, _ := filepath.Rel(modDir, path)
		pkgPath := modPath
		if rel != "." {
			pkgPath += "/" + filepath.ToSlash(rel)
		}
		p, err := ld.Load(pkgPath)
		if err != nil {
			if strings.Contains(err.Error(), "no buildable Go source files") {
				return nil // only _test.go files
			}
			return err
		}
		if len(p.TypeErrors) > 0 {
			t.Errorf("%s: %v", pkgPath, p.TypeErrors[0])
		}
		pkgs = append(pkgs, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	inTest := func(pos ast.Node) bool {
		return strings.HasSuffix(ld.Fset.Position(pos.Pos()).Filename, "_test.go")
	}
	// Every use of a function, split by whether real code makes it.
	realUse, anyUse := map[*types.Func]bool{}, map[*types.Func]bool{}
	for _, p := range pkgs {
		for id, obj := range p.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			anyUse[fn] = true
			if !testCode(p.Path) && !inTest(id) {
				realUse[fn] = true
			}
		}
	}
	ifaces := interfaces(pkgs)

	var bad []string
	for _, p := range pkgs {
		if testCode(p.Path) {
			continue
		}
		for _, f := range p.Files {
			if inTest(f) {
				continue
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, _ := p.Info.Defs[fd.Name].(*types.Func)
				if fn == nil || fd.Recv == nil && (fn.Name() == "main" || fn.Name() == "init") || fn.Name() == "_" {
					continue
				}
				called := anyUse[fn]
				if fn.Exported() {
					called = realUse[fn]
				}
				key := funcKey(fn)
				if called || keep[key] != "" || satisfies(fn, ifaces) {
					continue
				}
				bad = append(bad, ld.Fset.Position(fd.Pos()).String()+": "+key)
			}
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("no caller: %s", strings.TrimPrefix(b, modDir+string(filepath.Separator)))
	}
	for key := range keep {
		if !declared(pkgs, key) {
			t.Errorf("keep names %s, which is not declared", key)
		}
	}
}

// funcKey spells a function as package path, then receiver type name if a
// method, then name: "repro/internal/store.Store.Sync".
func funcKey(fn *types.Func) string {
	key := fn.Pkg().Path() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		rt := recv.Type()
		if ptr, ok := rt.(*types.Pointer); ok {
			rt = ptr.Elem()
		}
		if named, ok := rt.(*types.Named); ok {
			key += named.Obj().Name() + "."
		}
	}
	return key + fn.Name()
}

// interfaces gathers error and every interface type named at package level in
// the module and everything it imports.
func interfaces(pkgs []*load.Package) []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					out = append(out, it)
				}
			}
		}
		for _, imp := range tp.Imports() {
			visit(imp)
		}
	}
	for _, p := range pkgs {
		visit(p.Pkg)
	}
	return out
}

// satisfies reports whether fn is a method by which its receiver type (or
// a pointer to it) implements an interface with a method of fn's name.
func satisfies(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	rt := recv.Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() &&
				(types.Implements(rt, it) || types.Implements(types.NewPointer(rt), it)) {
				return true
			}
		}
	}
	return false
}

// declared reports whether key names a function some loaded package
// declares.
func declared(pkgs []*load.Package, key string) bool {
	for _, p := range pkgs {
		for _, obj := range p.Info.Defs {
			if fn, ok := obj.(*types.Func); ok && funcKey(fn) == key {
				return true
			}
		}
	}
	return false
}
