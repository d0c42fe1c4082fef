package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Lockio enforces the hot-path scaling rule from the cluster tier: never
// hold a mutex across network I/O or a channel send. A lock held across a
// blocking conn write serializes every other handler behind one slow
// peer's TCP window — at swarm scale that converts a single stalled agent
// into a coordinator-wide stall, which race tests only catch
// probabilistically and load tests catch too late.
//
// The analyzer tracks sync.Mutex/RWMutex Lock/RLock state through each
// function body (a deferred Unlock keeps the lock held to the end of the
// body, matching Go's runtime behavior) and reports any statically
// reachable point where a lock is held at:
//
//   - a net.Conn / net.Listener / net.Dialer I/O method (Read, Write,
//     Close, Accept, Dial, DialContext),
//   - a wire.Conn protocol call (Send, Recv, Request, Call, Close),
//   - a dial or listen (net.Dial, net.DialTimeout, net.Listen), or
//   - a channel send (including select send cases).
//
// Function literals are separate scopes: a closure that runs later (go,
// callbacks) does not execute under the lock held at its creation site.
// The lock tracking is intraprocedural and over-approximates reachability
// (both branches of an if are assumed reachable), which is the right bias
// for a gate: a narrowed critical section is always available as the fix.
//
// Call classification, however, is interprocedural: beyond the direct
// net/wire intrinsics, any call into a function whose transitive facts
// (facts.go) say it may block — it dials, writes a conn, or performs an
// unconditional channel send somewhere down its static call chain — is
// flagged with the evidence chain in the diagnostic. A blocking helper
// hidden one function deep no longer hides the stall.
var Lockio = &Analyzer{
	Name: "lockio",
	Doc: "forbid holding a sync.Mutex/RWMutex across network I/O, wire protocol calls, " +
		"or channel sends",
	Run: runLockio,
}

// netIOMethods are the blocking I/O entry points on net package types.
var netIOMethods = map[string]bool{
	"Read": true, "Write": true, "Close": true,
	"Accept": true, "Dial": true, "DialContext": true,
}

// wireIOMethods are wire.Conn's blocking protocol calls.
var wireIOMethods = map[string]bool{
	"Send": true, "Recv": true, "Request": true, "Call": true, "Close": true,
}

const wirePkgPath = "repro/internal/wire"

func runLockio(pass *Pass) error {
	w := &lockWalker{pass: pass}
	for _, f := range pass.Files {
		funcScopes(f, func(_ *ast.FuncDecl, body *ast.BlockStmt) {
			w.walkBlock(body, lockSet{})
		})
	}
	return nil
}

// lockSet maps a lock's textual key ("s.mu") to the position it was
// acquired at.
type lockSet map[string]token.Pos

func (ls lockSet) clone() lockSet {
	c := make(lockSet, len(ls))
	for k, v := range ls {
		c[k] = v
	}
	return c
}

// any returns an arbitrary held lock's key, for diagnostics.
func (ls lockSet) any() string {
	for k := range ls {
		return k
	}
	return ""
}

type lockWalker struct {
	pass *Pass
}

// walkBlock walks statements in order, threading lock state through
// sequential statements and forking copies into branches and loop bodies.
func (w *lockWalker) walkBlock(b *ast.BlockStmt, held lockSet) {
	for _, s := range b.List {
		w.walkStmt(s, held)
	}
}

func (w *lockWalker) walkStmt(s ast.Stmt, held lockSet) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		w.walkBlock(s, held)
	case *ast.ExprStmt:
		if key, op, ok := w.lockMethod(s.X); ok {
			switch op {
			case "Lock", "RLock":
				held[key] = s.Pos()
			case "Unlock", "RUnlock":
				delete(held, key)
			}
			return
		}
		w.scanExpr(s.X, held)
	case *ast.SendStmt:
		if len(held) > 0 {
			w.pass.Reportf(s.Pos(), "%s held across channel send: release the lock (or buffer outside the critical section) before sending", held.any())
		}
		w.scanExpr(s.Chan, held)
		w.scanExpr(s.Value, held)
	case *ast.DeferStmt:
		// A deferred Unlock keeps the lock held through the body (no state
		// change); any other deferred call runs at function exit, outside
		// this statement's lock context, so it is not scanned.
	case *ast.GoStmt:
		// The goroutine body runs on its own stack, not under our locks.
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		w.scanExpr(s.Cond, held)
		w.walkBlock(s.Body, held.clone())
		if s.Else != nil {
			w.walkStmt(s.Else, held.clone())
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		w.scanExpr(s.Cond, held)
		body := held.clone()
		w.walkBlock(s.Body, body)
		if s.Post != nil {
			w.walkStmt(s.Post, body)
		}
	case *ast.RangeStmt:
		w.scanExpr(s.X, held)
		w.walkBlock(s.Body, held.clone())
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		w.scanExpr(s.Tag, held)
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			branch := held.clone()
			for _, e := range cc.List {
				w.scanExpr(e, branch)
			}
			for _, st := range cc.Body {
				w.walkStmt(st, branch)
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		for _, c := range s.Body.List {
			branch := held.clone()
			for _, st := range c.(*ast.CaseClause).Body {
				w.walkStmt(st, branch)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			branch := held.clone()
			if cc.Comm != nil {
				w.walkStmt(cc.Comm, branch)
			}
			for _, st := range cc.Body {
				w.walkStmt(st, branch)
			}
		}
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.scanExpr(e, held)
		}
		for _, e := range s.Lhs {
			w.scanExpr(e, held)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.scanExpr(e, held)
		}
	case *ast.IncDecStmt:
		w.scanExpr(s.X, held)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.scanExpr(e, held)
					}
				}
			}
		}
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt, held)
	}
}

// scanExpr reports I/O calls inside e while locks are held. Function
// literals are not descended into: their bodies execute later, as their
// own scope.
func (w *lockWalker) scanExpr(e ast.Expr, held lockSet) {
	if e == nil || len(held) == 0 {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if desc, ok := w.ioCall(call); ok {
			w.pass.Reportf(call.Pos(), "%s held across %s: release the lock before blocking network I/O", held.any(), desc)
			return true
		}
		if name, via, ok := w.factsBlockingCall(call); ok {
			w.pass.Reportf(call.Pos(), "%s held across call to %s (may block: %s): release the lock before calling into blocking code", held.any(), name, via)
		}
		return true
	})
}

// lockMethod recognizes X.Lock / X.RLock / X.Unlock / X.RUnlock where the
// selected method belongs to package sync (covering embedded mutexes and
// sync.Locker values), returning the lock's textual key.
func (w *lockWalker) lockMethod(e ast.Expr) (key, op string, ok bool) {
	call, okCall := e.(*ast.CallExpr)
	if !okCall {
		return "", "", false
	}
	sel, okSel := call.Fun.(*ast.SelectorExpr)
	if !okSel {
		return "", "", false
	}
	op = sel.Sel.Name
	switch op {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	fn, okFn := w.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !okFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	key = exprString(sel.X)
	if key == "" {
		return "", "", false
	}
	return key, op, true
}

// factsBlockingCall consults the interprocedural facts: a call to a
// module function whose transitive facts say it may block. Intrinsic
// net/wire calls are already reported by ioCall, and stdlib functions
// carry no facts, so this only fires for module-level wrappers.
func (w *lockWalker) factsBlockingCall(call *ast.CallExpr) (name, via string, ok bool) {
	fn := calleeFunc(w.pass.TypesInfo, call)
	if fn == nil {
		return "", "", false
	}
	ff := w.pass.Facts.Of(fn)
	if ff == nil || !ff.MayBlock {
		return "", "", false
	}
	return shortFuncName(fn), ff.BlockVia, true
}

// ioCall classifies call as blocking network I/O, returning a short
// description for the diagnostic.
func (w *lockWalker) ioCall(call *ast.CallExpr) (string, bool) {
	if pkgPath, name, ok := w.pass.pkgFunc(call); ok {
		if pkgPath == "net" && (name == "Dial" || name == "DialTimeout" || name == "Listen") {
			return "net." + name, true
		}
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	pkgPath, typeName, ok := namedIn(w.pass.typeOf(sel.X))
	if !ok {
		return "", false
	}
	switch {
	case pkgPath == "net" && netIOMethods[sel.Sel.Name]:
		return "(net." + typeName + ")." + sel.Sel.Name, true
	case pkgPath == wirePkgPath && typeName == "Conn" && wireIOMethods[sel.Sel.Name]:
		return "(wire.Conn)." + sel.Sel.Name, true
	}
	return "", false
}
