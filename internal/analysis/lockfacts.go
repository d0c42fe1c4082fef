package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the facts engine's one walk of a function body. It threads
// the locks held at each point through the body, by their source spelling
// ("s.mu", "mu", "g" for an embedded mutex), and records every call and
// channel send made under one: what lockio reads. The same walk collects
// the local evidence for the boolean facts and the call edges the fixed
// point follows (facts.go).
//
// RLock is held like Lock: a reader blocked behind I/O stalls writers
// just the same.

// heldCall is a call or channel send made while a lock was held. A send
// has a nil callee.
type heldCall struct {
	callee types.Object
	pos    token.Pos
	lock   string // the innermost held lock's spelling, which lockio names
}

// scanLockFacts is the one walk of a function body. It appends to calls
// every call and send the body makes under a lock, and extracts into ff
// the local evidence for the boolean facts with the call edges the fixed
// point follows (see noteCall). A function literal is its own scope,
// entered with nothing held; nested literals are not entered.
//
// The boolean evidence keeps three distinctions: a send in a select with
// a default case does not block, a go'd call is not a callee (its
// arguments are still evaluated here), and a deferred call is one.
func scanLockFacts(info *types.Info, body *ast.BlockStmt, ff *FuncFacts, calls *[]heldCall) {
	w := &lockFactsWalker{info: info, ff: ff, calls: calls}
	w.walkBlock(body, nil)
}

type lockFactsWalker struct {
	info  *types.Info
	ff    *FuncFacts
	calls *[]heldCall
}

func cloneHeld(held []string) []string {
	return append([]string(nil), held...)
}

// walkBlock threads the ordered held-lock list through sequential
// statements, forking copies into branches: over-approximated
// reachability, order-preserving.
func (w *lockFactsWalker) walkBlock(b *ast.BlockStmt, held []string) []string {
	for _, s := range b.List {
		held = w.walkStmt(s, held)
	}
	return held
}

func (w *lockFactsWalker) walkStmt(s ast.Stmt, held []string) []string {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.walkBlock(s, held)
	case *ast.ExprStmt:
		if text, op, ok := w.lockMethodCall(s.X); ok {
			if op == "Lock" || op == "RLock" {
				return append(cloneHeld(held), text)
			}
			return release(held, text)
		}
		w.scanExpr(s.X, held)
	case *ast.DeferStmt:
		// A deferred Unlock keeps the lock held to the end of the body
		// (no state change); other deferred calls run at function exit,
		// outside this statement's lock context, but their receiver and
		// arguments are evaluated here and now.
		if _, _, ok := w.lockMethodCall(s.Call); !ok {
			if fn := calleeFunc(w.info, s.Call); fn != nil {
				w.ff.noteCall(fn)
			}
			w.scanDetachedCall(s.Call)
		}
	case *ast.GoStmt:
		// The spawned goroutine runs on its own stack, outside this lock
		// context; its arguments are still evaluated here.
		w.scanDetachedCall(s.Call)
	case *ast.IfStmt:
		if s.Init != nil {
			held = w.walkStmt(s.Init, held)
		}
		w.scanExpr(s.Cond, held)
		w.walkBlock(s.Body, cloneHeld(held))
		if s.Else != nil {
			w.walkStmt(s.Else, cloneHeld(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			held = w.walkStmt(s.Init, held)
		}
		w.scanExpr(s.Cond, held)
		body := w.walkBlock(s.Body, cloneHeld(held))
		if s.Post != nil {
			w.walkStmt(s.Post, body)
		}
	case *ast.RangeStmt:
		w.scanExpr(s.X, held)
		if t := w.info.Types[s.X].Type; t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				// Ranging a channel ends when the channel is closed — a
				// designed exit.
				w.ff.ShutdownSignal = true
			}
		}
		w.walkBlock(s.Body, cloneHeld(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			held = w.walkStmt(s.Init, held)
		}
		w.scanExpr(s.Tag, held)
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			branch := cloneHeld(held)
			for _, e := range cc.List {
				w.scanExpr(e, branch)
			}
			for _, st := range cc.Body {
				branch = w.walkStmt(st, branch)
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			held = w.walkStmt(s.Init, held)
		}
		w.walkStmt(s.Assign, held)
		for _, c := range s.Body.List {
			branch := cloneHeld(held)
			for _, st := range c.(*ast.CaseClause).Body {
				branch = w.walkStmt(st, branch)
			}
		}
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range s.Body.List {
			hasDefault = hasDefault || c.(*ast.CommClause).Comm == nil
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			branch := cloneHeld(held)
			if send, ok := cc.Comm.(*ast.SendStmt); ok {
				w.walkSend(send, branch, !hasDefault)
			} else if cc.Comm != nil {
				branch = w.walkStmt(cc.Comm, branch)
			}
			for _, st := range cc.Body {
				branch = w.walkStmt(st, branch)
			}
		}
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.scanExpr(e, held)
		}
		for _, e := range s.Lhs {
			w.scanExpr(e, held)
		}
	case *ast.SendStmt:
		w.walkSend(s, held, true)
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
		return w.walkStmt(s.Stmt, held)
	}
	return held
}

// walkSend records a channel send: may-block evidence unless it is the
// case of a select with a default, and, for lockio, the innermost held
// lock whether or not it can block.
func (w *lockFactsWalker) walkSend(s *ast.SendStmt, held []string, blocks bool) {
	if blocks {
		w.ff.blocks("channel send")
	}
	if len(held) > 0 {
		*w.calls = append(*w.calls, heldCall{pos: s.Pos(), lock: held[len(held)-1]})
	}
	w.scanExpr(s.Chan, held)
	w.scanExpr(s.Value, held)
}

// release drops the most recently acquired lock matching the Unlock's
// textual spelling.
func release(held []string, text string) []string {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i] == text {
			out := cloneHeld(held)
			return append(out[:i], out[i+1:]...)
		}
	}
	return held
}

// scanExpr records every resolvable call inside e, with the innermost held
// lock when one is held, and every shutdown-signal receive.
// Function literals are their own scope and not descended into.
func (w *lockFactsWalker) scanExpr(e ast.Expr, held []string) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			w.scanCall(n, held)
		case *ast.UnaryExpr:
			if isShutdownRecv(n) {
				w.ff.ShutdownSignal = true
			}
		}
		return true
	})
}

// scanCall handles one call discovered during scanExpr's walk: the
// call-graph edge, and, under a lock, the held-call record. Calls into
// sync and sync/atomic get no record (Lock/Unlock are consumed by
// walkStmt; cond.Wait, once.Do and the atomics are no edge).
func (w *lockFactsWalker) scanCall(call *ast.CallExpr, held []string) {
	fn := calleeFunc(w.info, call)
	if fn == nil {
		return
	}
	w.ff.noteCall(fn)
	if len(held) == 0 || fn.Pkg() == nil || fn.Pkg().Path() == "sync" || fn.Pkg().Path() == "sync/atomic" {
		return
	}
	*w.calls = append(*w.calls, heldCall{callee: fn, pos: call.Pos(), lock: held[len(held)-1]})
}

// scanDetachedCall handles a call whose execution is detached from the
// statement that names it (defer/go): the call itself gets no held-call
// record, and its receiver and argument expressions, evaluated here and
// now, are scanned for calls and receives but not checked against held
// locks.
func (w *lockFactsWalker) scanDetachedCall(call *ast.CallExpr) {
	w.scanExpr(call.Fun, nil)
	for _, a := range call.Args {
		w.scanExpr(a, nil)
	}
}

// lockMethodCall recognizes e as a call to a sync package lock method
// (Lock/RLock/Unlock/RUnlock) and returns the lock operand's source
// spelling.
func (w *lockFactsWalker) lockMethodCall(e ast.Expr) (text, op string, ok bool) {
	call, okCall := ast.Unparen(e).(*ast.CallExpr)
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
	fn, okFn := w.info.Uses[sel.Sel].(*types.Func)
	if !okFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	text = exprString(sel.X)
	return text, op, text != ""
}
