package analysis

import (
	"go/ast"
)

// Errdrop forbids discarding error results on I/O paths. The durable
// sample store's whole contract is that an acked sample survives a
// crash; a dropped fsync or Close error converts "durable" into
// "probably durable" silently, and a dropped Flush error truncates an
// exported dataset without failing anything. The analyzer uses the facts
// engine's returns-IO-error fact, so module-level wrappers (a WAL
// Append, a Store.Close, an export helper layered on bufio.Flush) carry
// the same obligation as the stdlib calls at the bottom of them.
//
// What is flagged, by discard form:
//
//   - a bare call statement (`f.Close()`, `st.Sync()`) discarding a
//     must-check error of either kind — the silent drop is never OK, in a
//     deferred func literal's body or one passed to a call statement
//     (`once.Do(func() { f.Close() })`) too;
//   - an explicit blank discard (`_ = f.Sync()`, `x, _ := w.Write(b)`)
//     or a deferred bare call (`defer f.Close()`) on a *durability*
//     ("file"-kind) path — fsync/flush/WAL errors are the product;
//   - explicit blank discards on "net"-kind paths (connection teardown,
//     best-effort error replies) are accepted: `_ = nc.Close()` is the
//     repo's documented best-effort idiom and stays legal. So is any
//     explicit discard in a deferred or passed func literal: a cleanup's
//     choice.
//
// Suppression: //lint:ignore errdrop <reason>.
var Errdrop = &Analyzer{
	Name: "errdrop",
	Doc: "forbid discarding error results on I/O, Close, Flush and WAL paths " +
		"(facts-aware: module wrappers carry the same obligation)",
	Run: runErrdrop,
}

func runErrdrop(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					pass.checkBareCall(call)
					pass.checkCallbacks(call)
					return false
				}
			case *ast.DeferStmt:
				if kind, desc, ok := pass.mustCheckIOCall(n.Call); ok && kind == "file" {
					pass.Reportf(n.Call.Pos(),
						"error from deferred %s dropped on a durability path: close explicitly and check, or //lint:ignore errdrop <reason>", desc)
				}
				pass.checkCallbacks(n.Call)
				return false
			case *ast.AssignStmt:
				pass.checkBlankDiscard(n)
			}
			return true
		})
	}
	return nil
}

// checkBareCall flags a call statement that drops a must-check error.
func (p *Pass) checkBareCall(call *ast.CallExpr) {
	if _, desc, ok := p.mustCheckIOCall(call); ok {
		p.Reportf(call.Pos(),
			"error from %s silently dropped: handle it, assign it, or //lint:ignore errdrop <reason>", desc)
	}
}

// checkCallbacks reads the func literals inside call, a deferred literal
// or one a call statement hands its callee (`once.Do(func() { ... })`, a
// handler passed to HandleFunc), for call statements that drop a
// must-check error, nested literals included. An explicit `_ =` there is
// the literal's written-down choice, typically a cleanup's on a path that
// is already failing.
func (p *Pass) checkCallbacks(call *ast.CallExpr) {
	ast.Inspect(call, func(n ast.Node) bool {
		if es, ok := n.(*ast.ExprStmt); ok {
			if inner, ok := es.X.(*ast.CallExpr); ok {
				p.checkBareCall(inner)
			}
		}
		return true
	})
}

// checkBlankDiscard flags `_ = call` / `x, _ := call()` where the blank
// swallows a durability-path error result.
func (p *Pass) checkBlankDiscard(as *ast.AssignStmt) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok || len(as.Lhs) == 0 {
		return
	}
	// The error is the callee's last result, so it lands in the last LHS.
	last, ok := as.Lhs[len(as.Lhs)-1].(*ast.Ident)
	if !ok || last.Name != "_" {
		return
	}
	kind, desc, must := p.mustCheckIOCall(call)
	if !must || kind != "file" {
		return
	}
	p.Reportf(as.Pos(),
		"error from %s explicitly discarded on a durability path: a dropped fsync/flush/close error un-durables an acked write", desc)
}

// mustCheckIOCall classifies call's callee: intrinsic stdlib I/O methods
// first, then the facts engine's returns-IO-error fact for module
// functions (which is how wrappers are caught).
func (p *Pass) mustCheckIOCall(call *ast.CallExpr) (kind, desc string, ok bool) {
	fn := calleeFunc(p.TypesInfo, call)
	if fn == nil {
		return "", "", false
	}
	if kind, desc, ok := intrinsicIOError(fn); ok {
		return kind, desc, true
	}
	if ff := p.Facts.Of(fn); ff != nil && ff.ReturnsIOError {
		return ff.IOErrorKind, shortFuncName(fn) + " (" + ff.IOErrorVia + ")", true
	}
	return "", "", false
}
