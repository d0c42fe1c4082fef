package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Goleak enforces goroutine lifecycle discipline in the long-lived server
// packages. WiScape's estimator state stays correct only while the
// processes mutating it can be drained and stopped: a goroutine spawned
// without a shutdown path outlives Close, keeps mutating zone/epoch
// state (or holding its WAL segment) after the owner thinks the world
// has stopped, and corrupts an epoch estimate without ever failing a
// test. Race detectors catch the write, not the leak.
//
// Every `go` statement in a server package must therefore carry one of
// the accepted pieces of lifecycle evidence:
//
//   - sync.WaitGroup accounting — a wg.Add in the spawning function, or
//     a (transitive) wg.Done inside the spawned function;
//   - a shutdown signal — the spawned function (transitively) selects or
//     receives on a done/ctx-style channel, or ranges over a channel;
//   - an audited suppression: //lint:ignore goleak <reason>.
//
// Evidence is resolved interprocedurally through the facts engine:
// `go s.loop()` is fine when loop (or anything it statically calls)
// selects on the stop channel. Spawns whose target cannot be resolved
// (function values, interface methods) are not reported — the analyzer
// only speaks when it can prove the absence of evidence.
//
// Scope: packages with a path element in serverPkgElems, plus any
// package with a file carrying the lone directive "//wiscape:server".
var Goleak = &Analyzer{
	Name: "goleak",
	Doc: "require goroutines in server packages to have a shutdown path: " +
		"done/ctx-channel select, sync.WaitGroup accounting, or an audited suppression",
	Run: runGoleak,
}

// serverPkgElems are the long-lived server packages: anything under
// these path elements serves traffic or owns background state.
var serverPkgElems = map[string]bool{
	"coordinator": true,
	"cluster":     true,
	"telemetry":   true,
	"store":       true,
	"agent":       true,
	"replication": true,
}

// ServerDirective opts a package into goleak from its own source.
const ServerDirective = "//wiscape:server"

func runGoleak(pass *Pass) error {
	if !goleakInScope(pass) {
		return nil
	}
	for _, f := range pass.Files {
		// Track the innermost enclosing function body at every go
		// statement so spawn-site wg.Add evidence can be checked.
		var stack []*ast.BlockStmt
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body == nil {
					return false
				}
				stack = append(stack, n.Body)
				ast.Inspect(n.Body, walk)
				stack = stack[:len(stack)-1]
				return false
			case *ast.FuncLit:
				stack = append(stack, n.Body)
				ast.Inspect(n.Body, walk)
				stack = stack[:len(stack)-1]
				return false
			case *ast.GoStmt:
				var spawnSite *ast.BlockStmt
				if len(stack) > 0 {
					spawnSite = stack[len(stack)-1]
				}
				pass.checkGoStmt(n, spawnSite)
			}
			return true
		}
		ast.Inspect(f, walk)
	}
	return nil
}

func goleakInScope(pass *Pass) bool {
	for _, elem := range strings.Split(pass.Pkg.Path(), "/") {
		if serverPkgElems[elem] {
			return true
		}
	}
	for _, f := range pass.Files {
		if hasDirective(f, ServerDirective) {
			return true
		}
	}
	return false
}

// checkGoStmt reports g unless lifecycle evidence is found at the spawn
// site or (transitively) inside the spawned function.
func (p *Pass) checkGoStmt(g *ast.GoStmt, spawnSite *ast.BlockStmt) {
	if spawnSite != nil && blockCallsWGAdd(p.TypesInfo, spawnSite, g) {
		return
	}
	if ok, resolved := p.spawnEvidence(g.Call); ok || !resolved {
		return
	}
	p.Reportf(g.Pos(), "goroutine has no shutdown path: no done/ctx-channel select, "+
		"no sync.WaitGroup accounting; bound its lifetime or //lint:ignore goleak <reason>")
}

// spawnEvidence reports whether the spawned call carries lifecycle
// evidence: a function literal is answered from the facts engine's walk
// of its body, with one level of its own callees' facts; a named function
// or method from its facts. resolved=false means the target is opaque
// (function value, interface method, or no facts at all) and the
// analyzer must stay silent.
func (p *Pass) spawnEvidence(call *ast.CallExpr) (ok, resolved bool) {
	if lit, isLit := ast.Unparen(call.Fun).(*ast.FuncLit); isLit {
		lf := p.Facts.literal(lit.Body)
		if lf == nil {
			return false, false
		}
		ok = lf.WGDone || lf.ShutdownSignal
		for _, callee := range lf.callees {
			if cf := p.Facts.Of(callee); cf != nil {
				ok = ok || cf.WGDone || cf.ShutdownSignal
			}
		}
		return ok, true
	}
	fn := calleeFunc(p.TypesInfo, call)
	if fn == nil {
		return false, false
	}
	if cf := p.Facts.Of(fn); cf != nil {
		return cf.WGDone || cf.ShutdownSignal, true
	}
	return false, false
}

// blockCallsWGAdd reports whether the spawning function calls
// (*sync.WaitGroup).Add anywhere outside nested function literals — the
// `wg.Add(1); go f()` idiom. The check is deliberately positional-blind:
// an Add anywhere in the function is accepted as accounting intent.
func blockCallsWGAdd(info *types.Info, body *ast.BlockStmt, g *ast.GoStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			if n != g {
				// Another spawn's subtree; its Adds are its own.
				return false
			}
		case *ast.CallExpr:
			if fn := calleeFunc(info, n); fn != nil && isWaitGroupMethod(fn, "Add") {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
