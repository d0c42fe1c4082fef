// Package analysis is wiscape-lint: a suite of static analyzers that
// machine-enforce the invariants this repository's correctness rests on
// but the Go compiler cannot check —
//
//   - nodeterm: deterministic packages must not read wall-clock time
//     (the paper's zone/epoch estimates are reproducible only if every
//     sample path runs on an injected, virtual clock);
//   - lockio: the coordinator/gateway hot paths must never hold a mutex
//     across network I/O or a channel send;
//   - wirebound: every wire envelope crosses the network through
//     wire.Conn's MaxMessageBytes cap;
//   - goleak: server-side goroutines must carry evidence of a bounded
//     lifetime (shutdown-signal receive or WaitGroup accounting);
//   - errdrop: errors from I/O-shaped calls must not be dropped on
//     durability paths, with file/net kinds derived transitively;
//   - lockorder: lock acquisition order must be globally consistent —
//     any cycle in the whole-load ordering graph is a potential deadlock.
//
// The Analyzer/Pass contract deliberately mirrors golang.org/x/tools'
// go/analysis (Name, Doc, Run(*Pass), Pass.Reportf) so each analyzer can
// port to the upstream driver unchanged if the repository ever takes that
// dependency; the repo itself stays dependency-free, with package load
// standing in for go/packages and package analysistest for the upstream
// fixture harness.
//
// A finding is suppressed by the line comment
//
//	//lint:ignore <analyzer> <reason>
//
// on the flagged line or the line above it. The reason is mandatory:
// suppressions are an audited escape hatch, not an off switch.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and suppressions.
	Name string
	// Doc is the one-paragraph description shown by wiscape-lint -help.
	Doc string
	// Run reports the analyzer's findings on one package via pass.Report.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Facts holds the interprocedural facts and whole-load findings
	// computed over every loaded package before analyzers run (see
	// facts.go). Nil is legal: errdrop degrades to intraprocedural
	// behavior, and goleak and the whole-load analyzers report nothing.
	Facts  *Facts
	Report func(Diagnostic)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// reportFindings is the Run of both whole-load analyzers (lockio,
// lockorder): ComputeFacts has already produced their verdicts, and each
// pass reports the ones anchored in its own files, so a multi-package run
// emits each exactly once.
func reportFindings(pass *Pass) error {
	for _, d := range pass.Facts.Findings(pass.Analyzer.Name) {
		for _, f := range pass.Files {
			if f.FileStart <= d.Pos && d.Pos < f.FileEnd {
				pass.Report(d)
				break
			}
		}
	}
	return nil
}

// All returns the full suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{Nodeterm, Lockio, Wirebound, Goleak, Errdrop, Lockorder}
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// ---- shared type-resolution helpers ----
//
// Every helper tolerates missing type information (a nil TypesInfo entry)
// by returning the zero answer: with partial types an analyzer misses
// findings rather than inventing them.

// pkgFunc resolves call to a package-level function: it returns the
// imported package path and function name when call.Fun is pkg.Name with
// pkg a package identifier, and ok=false otherwise.
func (p *Pass) pkgFunc(call *ast.CallExpr) (pkgPath, name string, ok bool) {
	sel, okSel := call.Fun.(*ast.SelectorExpr)
	if !okSel {
		return "", "", false
	}
	id, okID := sel.X.(*ast.Ident)
	if !okID {
		return "", "", false
	}
	pn, okPkg := p.TypesInfo.Uses[id].(*types.PkgName)
	if !okPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// typeOf returns the static type of e, or nil without type information.
func (p *Pass) typeOf(e ast.Expr) types.Type {
	if p.TypesInfo == nil {
		return nil
	}
	return p.TypesInfo.Types[e].Type
}

// deref unwraps one level of pointer.
func deref(t types.Type) types.Type {
	if pt, ok := t.Underlying().(*types.Pointer); ok {
		return pt.Elem()
	}
	return t
}

// namedType reports whether t (possibly behind one pointer) is the named
// type pkgPath.name.
func namedType(t types.Type, pkgPath, name string) bool {
	if t == nil {
		return false
	}
	n, ok := deref(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// namedIn returns (pkgPath, typeName) when t (possibly behind one pointer)
// is a named type, and ok=false otherwise.
func namedIn(t types.Type) (pkgPath, name string, ok bool) {
	if t == nil {
		return "", "", false
	}
	n, okNamed := deref(t).(*types.Named)
	if !okNamed {
		return "", "", false
	}
	obj := n.Obj()
	if obj == nil || obj.Pkg() == nil {
		return "", "", false
	}
	return obj.Pkg().Path(), obj.Name(), true
}

// exprString renders a stable textual key for an expression ("s.met",
// "a.Telemetry"), used to match guard conditions against accesses.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprString(e.X)
	}
	return ""
}

// hasDirective reports whether any comment in f is the given lone
// directive (e.g. "//wiscape:deterministic"), ignoring surrounding space.
func hasDirective(f *ast.File, directive string) bool {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.TrimSpace(c.Text) == directive {
				return true
			}
		}
	}
	return false
}

// funcScopes yields every function body in f paired with its declaration
// (nil for function literals), so analyzers can treat each body as one
// analysis scope.
func funcScopes(f *ast.File, fn func(decl *ast.FuncDecl, body *ast.BlockStmt)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				fn(n, n.Body)
			}
		case *ast.FuncLit:
			fn(nil, n.Body)
		}
		return true
	})
}

// Suppressed reports whether a diagnostic at pos for analyzer name is
// covered by a "//lint:ignore <name> <reason>" comment on the same line or
// the line immediately above.
func Suppressed(fset *token.FileSet, files []*ast.File, name string, pos token.Pos) bool {
	position := fset.Position(pos)
	for _, f := range files {
		if fset.Position(f.Pos()).Filename != position.Filename {
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(strings.TrimSpace(c.Text), "//lint:ignore ")
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 || fields[0] != name {
					continue // a bare name with no reason does not suppress
				}
				cline := fset.Position(c.Pos()).Line
				if cline == position.Line || cline == position.Line-1 {
					return true
				}
			}
		}
	}
	return false
}
