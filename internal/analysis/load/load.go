// Package load type-checks Go packages from source using only the
// standard library's go/* toolchain packages (go/build for build-tag file
// selection, go/parser for syntax, go/types for semantics).
//
// It exists because the wiscape-lint analyzers (internal/analysis) need
// full type information — "is this receiver a sync.Mutex?", "is this field
// a *telemetry.Counter?" — and the repository deliberately carries no
// external dependencies, so golang.org/x/tools/go/packages is not
// available. The loader resolves three kinds of import paths:
//
//   - module-local paths ("repro/...") against the module root,
//   - standard-library paths against GOROOT/src (and GOROOT/src/vendor),
//   - explicit overrides, which analysistest uses to map fixture packages
//     like "nodeterm" onto testdata/src/nodeterm.
//
// Target packages (module-local and overrides) are checked with function
// bodies; dependencies reached only through imports (the standard library)
// are checked declarations-only, which is both much faster and immune to
// body-level oddities in GOROOT sources. Type errors are collected, not
// fatal: analyzers are written to degrade gracefully when type information
// is partial, so one broken file never hides every other finding.
package load

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/scanner"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed and type-checked package.
type Package struct {
	// Path is the import path the package was requested under.
	Path string
	// Dir is the directory its files were read from.
	Dir string
	// Files are the parsed (non-test) source files, in file-name order.
	Files []*ast.File
	// Pkg is the type-checked package object (never nil, possibly
	// incomplete when TypeErrors is non-empty).
	Pkg *types.Package
	// Info holds the use/def/type maps for target packages; nil for
	// declarations-only dependencies.
	Info *types.Info
	// ParseErrors are the syntax errors encountered, one per position
	// (scanner error lists are flattened). A file that fails to parse
	// entirely is dropped from Files, but its errors are preserved here
	// so drivers can surface them as file:line diagnostics instead of
	// silently analyzing a package with a hole in it.
	ParseErrors []error
	// TypeErrors are the soft type-checking errors encountered.
	TypeErrors []error
}

// Loader loads packages, memoizing by import path. It is not safe for
// concurrent use; lint runs load sequentially.
type Loader struct {
	// Fset positions every file loaded through this loader.
	Fset *token.FileSet

	// ModulePath / ModuleDir root module-local import resolution
	// (e.g. "repro" -> /path/to/repo).
	ModulePath string
	ModuleDir  string

	// Overrides maps import paths onto directories ahead of module and
	// GOROOT resolution. analysistest points fixture paths here.
	Overrides map[string]string

	// IncludeTests adds _test.go files of target packages (the in-package
	// test files only; external _test packages are out of scope).
	IncludeTests bool

	ctxt build.Context
	pkgs map[string]*entry
}

type entry struct {
	pkg     *Package
	err     error
	loading bool
}

// New returns a loader with cgo disabled (GOROOT sources are selected in
// their pure-Go configuration, so packages like net type-check without
// running cgo).
func New() *Loader {
	ctxt := build.Default
	ctxt.CgoEnabled = false
	return &Loader{
		Fset: token.NewFileSet(),
		ctxt: ctxt,
		pkgs: make(map[string]*entry),
	}
}

// resolve maps an import path to (directory, target?). Target packages get
// full type-checking with bodies and an Info; dependencies do not.
func (l *Loader) resolve(path string) (dir string, target bool, err error) {
	if d, ok := l.Overrides[path]; ok {
		return d, true, nil
	}
	if l.ModulePath != "" {
		if path == l.ModulePath {
			return l.ModuleDir, true, nil
		}
		if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
			return filepath.Join(l.ModuleDir, filepath.FromSlash(rest)), true, nil
		}
	}
	goroot := l.ctxt.GOROOT
	for _, d := range []string{
		filepath.Join(goroot, "src", filepath.FromSlash(path)),
		filepath.Join(goroot, "src", "vendor", filepath.FromSlash(path)),
	} {
		if fi, err := os.Stat(d); err == nil && fi.IsDir() {
			return d, false, nil
		}
	}
	return "", false, fmt.Errorf("load: cannot resolve import %q", path)
}

// Load parses and type-checks the package at the given import path (and,
// transitively, everything it imports). Results are memoized.
func (l *Loader) Load(path string) (*Package, error) {
	if e, ok := l.pkgs[path]; ok {
		if e.loading {
			return nil, fmt.Errorf("load: import cycle through %q", path)
		}
		return e.pkg, e.err
	}
	e := &entry{loading: true}
	l.pkgs[path] = e
	e.pkg, e.err = l.load(path)
	e.loading = false
	return e.pkg, e.err
}

func (l *Loader) load(path string) (*Package, error) {
	if path == "unsafe" {
		return &Package{Path: path, Pkg: types.Unsafe}, nil
	}
	dir, target, err := l.resolve(path)
	if err != nil {
		return nil, err
	}
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("load: scanning %s: %w", dir, err)
	}
	names := append([]string(nil), bp.GoFiles...)
	if target && l.IncludeTests {
		names = append(names, bp.TestGoFiles...)
	}
	sort.Strings(names)

	var files []*ast.File
	var parseErrs, softErrs []error
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			// A scanner.ErrorList carries one positioned error per
			// syntax problem; flatten it so each surfaces individually.
			if list, ok := err.(scanner.ErrorList); ok {
				for _, e := range list {
					parseErrs = append(parseErrs, e)
				}
			} else {
				parseErrs = append(parseErrs, err)
			}
			if f == nil {
				continue
			}
		}
		files = append(files, f)
	}

	pkg := &Package{Path: path, Dir: dir, ParseErrors: parseErrs}
	if target {
		pkg.Info = &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
	}
	conf := types.Config{
		Importer:         importerFunc(func(p string) (*types.Package, error) { return l.importPkg(p) }),
		IgnoreFuncBodies: !target,
		FakeImportC:      true,
		Error:            func(err error) { softErrs = append(softErrs, err) },
	}
	// Check never returns a nil package; soft errors land in softErrs.
	tpkg, _ := conf.Check(path, l.Fset, files, pkg.Info)
	pkg.Files = files
	pkg.Pkg = tpkg
	pkg.TypeErrors = softErrs
	return pkg, nil
}

// Packages returns every fully-checked target package loaded so far (the
// ones with bodies and an Info), sorted by import path. Facts engines
// consume this to see the whole load, not just the requested roots.
func (l *Loader) Packages() []*Package {
	var out []*Package
	for _, e := range l.pkgs {
		if e.pkg != nil && e.pkg.Info != nil {
			out = append(out, e.pkg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// FindModule walks up from the working directory to the enclosing go.mod
// and returns its directory and module path: what ModuleDir and
// ModulePath are set to by both the wiscape-lint driver and analysistest.
func FindModule() (dir, modPath string, err error) {
	dir, err = os.Getwd()
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("no module line in %s/go.mod", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}

// importPkg backs the types.Importer needed while checking: dependencies
// of the package under load.
func (l *Loader) importPkg(path string) (*types.Package, error) {
	p, err := l.Load(path)
	if err != nil {
		return nil, err
	}
	return p.Pkg, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
