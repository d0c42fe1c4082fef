package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file is the lock-order fact domain: per-function evidence about
// which locks a function acquires and in what order, assembled by
// ComputeFacts into a whole-load lock-ordering graph whose cycles the
// lockorder analyzer reports as potential deadlocks.
//
// Locks are keyed by identity, not spelling: a sync.Mutex/RWMutex struct
// field is "(pkg.Type).field" no matter which receiver variable it is
// reached through, and a package-level mutex is "pkg.var". That choice
// deliberately conflates different instances of the same type — locking
// shardA.mu then shardB.mu contributes no edge (self-edges are dropped),
// so iterating a slice of shards can never manufacture a cycle, at the
// cost of missing genuine multi-instance deadlocks. Local mutex
// variables, invisible to any other function, carry no identity: the walk
// holds them by spelling alone, for lockio, and every identity-keyed
// record ignores them.
//
// RLock is treated exactly like Lock: a writer blocked on an RWMutex
// stalls later readers, so reader/writer distinctions do not break an
// ordering cycle.

// LockAcquire records that a function may take the identified lock,
// directly or through its static call chain.
type LockAcquire struct {
	// Pos is the position of the underlying Lock/RLock call.
	Pos token.Pos
	// Via names the call chain from the function to the acquisition;
	// empty when the function locks in its own body.
	Via string
}

// lockEdge is one ordered pair observed directly in a body: from was
// held when to was acquired at pos.
type lockEdge struct {
	from, to string
	pos      token.Pos
}

// heldCall is a call made while locks were held; joined with the
// callee's transitive Acquires it yields cross-function ordering edges.
// The same records double as the call-context edges of the field-access
// domain (fieldfacts.go), which is why calls with an empty held set are
// recorded too: a single unlocked call site is what breaks a "callers
// always hold mu" guarantee. lockio reads them as well, through lock; a
// channel send under a lock is recorded for it with a nil callee and no
// held identities, so the other domains pass over it.
type heldCall struct {
	held   []string // identity keys held at the call site, deduplicated
	callee types.Object
	pos    token.Pos
	// lock spells the innermost lock held at the site (local mutexes
	// included) — what lockio names. It is empty when nothing is held and
	// for deferred and go'd calls and their arguments, which lockio does
	// not check.
	lock string
	// orderExempt excludes this edge from the lock-ordering graph:
	// deferred and go'd calls run outside the statement's lock context
	// (PR 9 deliberately contributes no ordering edges for them), but the
	// field-access domain still needs the call edge for its must-hold
	// caller intersection.
	orderExempt bool
}

// scanLockFacts extracts lock-order and field-access evidence from one
// function body into ff: the locks it acquires, the direct ordering
// edges, the calls and sends it makes (with the held set at each site),
// and every struct-field read/write with its flow-sensitive held set. fd
// is nil for a function literal, which is its own scope, entered with
// nothing held.
func scanLockFacts(info *types.Info, fd *ast.FuncDecl, body *ast.BlockStmt, ff *FuncFacts) {
	w := &lockFactsWalker{info: info, ff: ff}
	if fd != nil {
		w.fresh = freshLocals(info, body)
		w.teardown = teardownFuncName(fd.Name.Name)
	}
	w.walkBlock(body, nil)
}

// heldLock is one entry of the walker's ordered held-lock list.
type heldLock struct {
	id   string // identity key, e.g. "(cluster.Shard).mu"; "" for a local mutex
	text string // source spelling, e.g. "sh.mu" — what the Unlock matches
}

type lockFactsWalker struct {
	info *types.Info
	ff   *FuncFacts
	// fresh holds the local variables born from a composite literal or
	// new() in this body: accesses through them are constructor-time and
	// escape the lockguard/atomicmix rules (fieldfacts.go).
	fresh map[*types.Var]bool
	// teardown marks the whole body as teardown (Close/Stop/Shutdown
	// methods); afterWait flips once a (*sync.WaitGroup).Wait call has
	// been seen, marking everything after it as post-Wait teardown.
	teardown  bool
	afterWait bool
	// detached is set while a defer or go statement's call is scanned:
	// none of the calls found there is lockio's to check.
	detached bool
}

func cloneHeld(held []heldLock) []heldLock {
	return append([]heldLock(nil), held...)
}

// walkBlock threads the ordered held-lock list through sequential
// statements, forking copies into branches: over-approximated
// reachability, order-preserving.
func (w *lockFactsWalker) walkBlock(b *ast.BlockStmt, held []heldLock) []heldLock {
	for _, s := range b.List {
		held = w.walkStmt(s, held)
	}
	return held
}

func (w *lockFactsWalker) walkStmt(s ast.Stmt, held []heldLock) []heldLock {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.walkBlock(s, held)
	case *ast.ExprStmt:
		if id, text, op, ok := w.lockMethodCall(s.X); ok {
			if id == "" {
				// To the identity-keyed domains a local mutex's lock call
				// is an ordinary expression statement.
				w.scanExpr(s.X, held)
			}
			switch op {
			case "Lock", "RLock":
				return w.acquire(held, id, text, s.Pos())
			default: // Unlock, RUnlock
				return release(held, text)
			}
		}
		if w.isWaitCall(s.X) {
			// Everything from here on runs after the WaitGroup drained:
			// plain reads of worker-written state are the documented
			// teardown idiom, not a race.
			w.afterWait = true
		}
		w.scanExpr(s.X, held)
	case *ast.DeferStmt:
		// A deferred Unlock keeps the lock held to the end of the body
		// (no state change); other deferred calls run at function exit,
		// outside this statement's lock context — they contribute no
		// ordering edge, but the field domain records the call (with the
		// held set at the defer statement approximating the exit-time
		// set) and the argument/receiver reads evaluated here and now.
		if id, _, _, ok := w.lockMethodCall(s.Call); !ok || id == "" {
			w.scanDetachedCall(s.Call, held, held)
		}
	case *ast.GoStmt:
		// The spawned goroutine acquires its locks later, on its own
		// stack; they do not order against locks held here — and it runs
		// without them, so its call edge carries an empty held set (which
		// is exactly what stops the field domain from believing a
		// goroutine body inherits its spawner's locks). Arguments are
		// still evaluated here, under the current set.
		w.scanDetachedCall(s.Call, nil, held)
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
		for _, c := range s.Body.List {
			branch := cloneHeld(held)
			for _, st := range c.(*ast.CaseClause).Body {
				branch = w.walkStmt(st, branch)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			branch := cloneHeld(held)
			if cc.Comm != nil {
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
			w.writeTarget(e, held)
		}
	case *ast.SendStmt:
		if len(held) > 0 {
			w.ff.heldCalls = append(w.ff.heldCalls, heldCall{pos: s.Pos(), lock: held[len(held)-1].text})
		}
		w.scanExpr(s.Chan, held)
		w.scanExpr(s.Value, held)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.scanExpr(e, held)
		}
	case *ast.IncDecStmt:
		w.writeTarget(s.X, held)
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

// acquire records the new lock: for an identity-keyed lock, an Acquires
// entry and one ordering edge per currently-held identity-keyed lock; for
// every lock, an appended held entry.
func (w *lockFactsWalker) acquire(held []heldLock, id, text string, pos token.Pos) []heldLock {
	if id != "" {
		if w.ff.Acquires == nil {
			w.ff.Acquires = make(map[string]LockAcquire)
		}
		if _, ok := w.ff.Acquires[id]; !ok {
			w.ff.Acquires[id] = LockAcquire{Pos: pos}
		}
		for _, h := range held {
			if h.id != "" && h.id != id {
				w.ff.lockEdges = append(w.ff.lockEdges, lockEdge{from: h.id, to: id, pos: pos})
			}
		}
	}
	return append(cloneHeld(held), heldLock{id: id, text: text})
}

// release drops the most recently acquired lock matching the Unlock's
// textual spelling.
func release(held []heldLock, text string) []heldLock {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i].text == text {
			out := cloneHeld(held)
			return append(out[:i], out[i+1:]...)
		}
	}
	return held
}

// scanExpr records every resolvable call inside e (with the held set at
// the site — empty sets included, for the field domain's caller
// intersection) and every struct-field read, distinguishing sync/atomic
// accesses from plain ones. Function literals are their own scope and
// not descended into.
func (w *lockFactsWalker) scanExpr(e ast.Expr, held []heldLock) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			return w.scanCall(n, held)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				// &x.f of a sync/atomic-typed field is the by-pointer
				// handoff the atomic API works through, not a plain read.
				if key, atomicTyped, ok := w.fieldSel(n.X); ok && atomicTyped {
					w.recordAccess(n.X, key, held, accessAtomic)
					w.scanExpr(selBase(n.X), held)
					return false
				}
			}
		case *ast.SelectorExpr:
			if key, _, ok := w.fieldSel(n); ok {
				// Record the read and keep descending: x in x.f may be a
				// field itself.
				w.recordAccess(n, key, held, 0)
			}
		}
		return true
	})
}

// scanCall handles one call discovered during scanExpr's walk. It
// returns false when it has walked the interesting children itself.
func (w *lockFactsWalker) scanCall(call *ast.CallExpr, held []heldLock) bool {
	fn := calleeFunc(w.info, call)
	if fn == nil || fn.Pkg() == nil {
		return true
	}
	switch fn.Pkg().Path() {
	case "sync/atomic":
		w.scanAtomicCall(call, fn, held)
		return false
	case "sync":
		// Lock/Unlock are consumed by walkStmt; other sync methods
		// (cond.Wait, once.Do arguments…) contribute no call edge.
		return true
	}
	w.recordCallEdge(call, held, false)
	return true
}

// scanAtomicCall records the field accesses of one sync/atomic call. Two
// shapes: atomic.AddInt64(&s.n, 1) marks the &field argument atomic;
// s.n.Load() (typed atomics) marks the receiver field.
func (w *lockFactsWalker) scanAtomicCall(call *ast.CallExpr, fn *types.Func, held []heldLock) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if sig, okSig := fn.Type().(*types.Signature); okSig && sig.Recv() != nil {
			if key, _, okF := w.fieldSel(sel.X); okF {
				w.recordAccess(sel.X, key, held, accessAtomic)
			}
			w.scanExpr(selBase(sel.X), held)
		}
	}
	for _, a := range call.Args {
		if ue, ok := ast.Unparen(a).(*ast.UnaryExpr); ok && ue.Op == token.AND {
			if key, _, okF := w.fieldSel(ue.X); okF {
				w.recordAccess(ue.X, key, held, accessAtomic)
				w.scanExpr(selBase(ue.X), held)
				continue
			}
		}
		w.scanExpr(a, held)
	}
}

// scanDetachedCall handles a call whose execution is detached from the
// statement that names it (defer/go): the call edge carries edgeHeld —
// the held set approximating the callee's eventual run context — while
// receiver and argument expressions are evaluated here and now, under
// readHeld. Both edges are order-exempt (PR 9's lockorder graph ignores
// them), and a deferred/spawned sync/atomic call still records its
// atomic field access rather than a plain receiver read.
func (w *lockFactsWalker) scanDetachedCall(call *ast.CallExpr, edgeHeld, readHeld []heldLock) {
	w.detached = true
	defer func() { w.detached = false }()
	if fn := calleeFunc(w.info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" {
		w.scanAtomicCall(call, fn, readHeld)
		return
	}
	w.recordCallEdge(call, edgeHeld, true)
	w.scanExpr(call.Fun, readHeld)
	for _, a := range call.Args {
		w.scanExpr(a, readHeld)
	}
}

// recordCallEdge appends the resolvable callee of call to heldCalls with
// the (deduplicated) held set and, outside defer/go, the innermost lock.
func (w *lockFactsWalker) recordCallEdge(call *ast.CallExpr, held []heldLock, orderExempt bool) {
	fn := calleeFunc(w.info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() == "sync" || fn.Pkg().Path() == "sync/atomic" {
		return
	}
	hc := heldCall{held: dedupHeldIDs(held), callee: fn, pos: call.Pos(), orderExempt: orderExempt}
	if len(held) > 0 && !w.detached {
		hc.lock = held[len(held)-1].text
	}
	w.ff.heldCalls = append(w.ff.heldCalls, hc)
}

// dedupHeldIDs flattens the ordered held list to its distinct identity
// keys, preserving acquisition order; local mutexes have none.
func dedupHeldIDs(held []heldLock) []string {
	if len(held) == 0 {
		return nil
	}
	ids := make([]string, 0, len(held))
	seen := make(map[string]bool, len(held))
	for _, h := range held {
		if h.id != "" && !seen[h.id] {
			seen[h.id] = true
			ids = append(ids, h.id)
		}
	}
	return ids
}

// writeTarget records the assignment target e as a field write when it
// resolves to one — including writes through a field-held container
// (s.m[k] = v mutates what s.m guards) — and scans the rest for reads.
func (w *lockFactsWalker) writeTarget(e ast.Expr, held []heldLock) {
	switch t := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if key, _, ok := w.fieldSel(t); ok {
			w.recordAccess(t, key, held, accessWrite)
			w.scanExpr(selBase(t), held)
			return
		}
	case *ast.IndexExpr:
		w.scanExpr(t.Index, held)
		if key, _, ok := w.fieldSel(t.X); ok {
			w.recordAccess(t.X, key, held, accessWrite)
			w.scanExpr(selBase(t.X), held)
			return
		}
		w.scanExpr(t.X, held)
		return
	case *ast.StarExpr:
		// *s.p = v writes through the pointer: the field itself is read.
		w.scanExpr(t.X, held)
		return
	}
	w.scanExpr(e, held)
}

// isWaitCall reports whether e is a (*sync.WaitGroup).Wait call.
func (w *lockFactsWalker) isWaitCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := calleeFunc(w.info, call)
	return fn != nil && isWaitGroupMethod(fn, "Wait")
}

// lockMethodCall recognizes e as a call to a sync package lock method
// (Lock/RLock/Unlock/RUnlock) and resolves the lock operand to its
// identity key ("" for a local mutex) and source spelling.
func (w *lockFactsWalker) lockMethodCall(e ast.Expr) (id, text, op string, ok bool) {
	call, okCall := ast.Unparen(e).(*ast.CallExpr)
	if !okCall {
		return "", "", "", false
	}
	sel, okSel := call.Fun.(*ast.SelectorExpr)
	if !okSel {
		return "", "", "", false
	}
	op = sel.Sel.Name
	switch op {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", "", false
	}
	fn, okFn := w.info.Uses[sel.Sel].(*types.Func)
	if !okFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", "", false
	}
	id = w.lockIdentity(sel)
	text = exprString(sel.X)
	if text == "" {
		return "", "", "", false
	}
	return id, text, op, true
}

// lockIdentity keys a lock by what it is rather than how it is spelled:
// struct fields as "(pkg.Type).field", package-level mutexes as
// "pkg.var". Everything else — above all local mutex variables — has no
// cross-function identity and returns "".
func (w *lockFactsWalker) lockIdentity(sel *ast.SelectorExpr) string {
	// An embedded mutex (s.Lock() with the sync.Mutex promoted) selects
	// the method through one or more field hops; the last hop's owner is
	// the identity.
	if ms, ok := w.info.Selections[sel]; ok && len(ms.Index()) > 1 {
		return fieldPathKey(ms.Recv(), ms.Index()[:len(ms.Index())-1])
	}
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		if fs, ok := w.info.Selections[x]; ok {
			if v, okVar := fs.Obj().(*types.Var); okVar && v.IsField() {
				return fieldPathKey(fs.Recv(), fs.Index())
			}
			return ""
		}
		if v, okVar := w.info.Uses[x.Sel].(*types.Var); okVar && pkgLevelVar(v) {
			return v.Pkg().Name() + "." + v.Name()
		}
	case *ast.Ident:
		if v, okVar := w.info.Uses[x].(*types.Var); okVar && pkgLevelVar(v) {
			return v.Pkg().Name() + "." + v.Name()
		}
	}
	return ""
}

// fieldPathKey walks a selection index path (which steps through
// promoted fields) to its final field and keys it by the named type that
// holds it: "(pkg.Type).field".
func fieldPathKey(recv types.Type, index []int) string {
	t := recv
	for i, fi := range index {
		st, ok := deref(t).Underlying().(*types.Struct)
		if !ok || fi >= st.NumFields() {
			return ""
		}
		f := st.Field(fi)
		if i == len(index)-1 {
			n, okNamed := deref(t).(*types.Named)
			if !okNamed {
				return ""
			}
			obj := n.Obj()
			if obj == nil || obj.Pkg() == nil {
				return ""
			}
			return "(" + obj.Pkg().Name() + "." + obj.Name() + ")." + f.Name()
		}
		t = f.Type()
	}
	return ""
}

func pkgLevelVar(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// propagateLockAcquires closes Acquires over the static call graph:
// whatever a callee may acquire, its caller may acquire too, with the
// call chain recorded for diagnostics. Monotone (keys are only added),
// so iterating to quiescence terminates.
func propagateLockAcquires(facts *Facts) {
	for changed := true; changed; {
		changed = false
		for _, obj := range facts.order {
			ff := facts.funcs[obj]
			for _, callee := range ff.callees {
				cf := facts.funcs[callee]
				if cf == nil || callee == obj || len(cf.Acquires) == 0 {
					continue
				}
				for _, k := range sortedLockKeys(cf.Acquires) {
					if _, ok := ff.Acquires[k]; ok {
						continue
					}
					acq := cf.Acquires[k]
					via := shortFuncName(callee)
					if acq.Via != "" {
						via += " → " + acq.Via
					}
					if ff.Acquires == nil {
						ff.Acquires = make(map[string]LockAcquire)
					}
					ff.Acquires[k] = LockAcquire{Pos: acq.Pos, Via: via}
					changed = true
				}
			}
		}
	}
}

func sortedLockKeys(m map[string]LockAcquire) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// lockGraphEdge is one edge of the assembled whole-load ordering graph.
type lockGraphEdge struct {
	from, to string
	pos      token.Pos
	desc     string // "in (gateway).addRoute" or "... via call to (Table).Bump"
}

// computeLockCycles assembles the global lock-ordering graph — direct
// in-body edges plus (held locks × callee's transitive acquisitions) at
// every call made under a lock — and reports its cycles, the lockorder
// findings. Each cycle is reported once, at the acquisition site of the
// first edge of the shortest cycle through its lexicographically
// smallest lock; its message names every edge with the function (and
// call chain) that establishes it.
func computeLockCycles(facts *Facts) []Diagnostic {
	var edges []lockGraphEdge
	seen := make(map[[2]string]bool)
	add := func(from, to string, pos token.Pos, desc string) {
		if from == to {
			return
		}
		k := [2]string{from, to}
		if seen[k] {
			return
		}
		seen[k] = true
		edges = append(edges, lockGraphEdge{from: from, to: to, pos: pos, desc: desc})
	}
	for _, obj := range facts.order {
		ff := facts.funcs[obj]
		for _, e := range ff.lockEdges {
			add(e.from, e.to, e.pos, "in "+shortFuncName(obj))
		}
		for _, hc := range ff.heldCalls {
			// Empty-held and defer/go edges exist for the field-access
			// domain's caller intersection only; they contribute no
			// ordering edge (nothing is ordered, or the callee runs
			// outside this statement's lock context).
			if len(hc.held) == 0 || hc.orderExempt {
				continue
			}
			cf := facts.funcs[hc.callee]
			if cf == nil || len(cf.Acquires) == 0 {
				continue
			}
			for _, k := range sortedLockKeys(cf.Acquires) {
				acq := cf.Acquires[k]
				desc := "in " + shortFuncName(obj) + " via call to " + shortFuncName(hc.callee)
				if acq.Via != "" {
					desc += " → " + acq.Via
				}
				for _, h := range hc.held {
					add(h, k, hc.pos, desc)
				}
			}
		}
	}

	adj := make(map[string][]int)
	nodeSet := make(map[string]bool)
	for i, e := range edges {
		adj[e.from] = append(adj[e.from], i)
		nodeSet[e.from] = true
		nodeSet[e.to] = true
	}
	for _, idxs := range adj {
		sort.Slice(idxs, func(a, b int) bool { return edges[idxs[a]].to < edges[idxs[b]].to })
	}
	nodes := make([]string, 0, len(nodeSet))
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)

	var cycles []Diagnostic
	for _, s := range nodes {
		path := shortestLockCycle(s, adj, edges)
		if path == nil {
			continue
		}
		// Report each cycle only at its smallest lock, so a two-lock
		// inversion yields one finding, not two.
		minNode := s
		for _, ei := range path {
			if edges[ei].from < minNode {
				minNode = edges[ei].from
			}
		}
		if minNode != s {
			continue
		}
		msg := "lock ordering cycle (potential deadlock): "
		for i, ei := range path {
			if i > 0 {
				msg += "; "
			}
			e := edges[ei]
			msg += e.from + " acquired before " + e.to + " " + e.desc
		}
		msg += " — pick one global acquisition order or release before crossing"
		cycles = append(cycles, Diagnostic{Pos: edges[path[0]].pos, Message: msg})
	}
	return cycles
}

// shortestLockCycle BFSes from s and returns the edge indices of the
// shortest cycle through s, or nil. Neighbor order is sorted, so the
// answer is deterministic.
func shortestLockCycle(s string, adj map[string][]int, edges []lockGraphEdge) []int {
	prev := map[string]int{s: -1} // node -> incoming edge index
	queue := []string{s}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, ei := range adj[u] {
			e := edges[ei]
			if e.to == s {
				path := []int{ei}
				for at := u; at != s; {
					pe := prev[at]
					path = append([]int{pe}, path...)
					at = edges[pe].from
				}
				return path
			}
			if _, ok := prev[e.to]; ok {
				continue
			}
			prev[e.to] = ei
			queue = append(queue, e.to)
		}
	}
	return nil
}
