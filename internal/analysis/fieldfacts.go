package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the field-access fact domain: for every struct-field
// identity "(pkg.Type).field" (the same keying as lockfacts.go, embedded
// fields resolved through their field path), every read and write in the
// load is recorded together with the flow-sensitive held-lock set at
// that program point. The per-function records are composed
// interprocedurally: a must-hold intersection over the call graph
// computes, for each function, the locks *every* known caller holds at
// *every* call site, so accesses inside a helper method inherit the
// caller's held set — the "caller must hold mu" convention becomes
// checkable instead of a comment.
//
// Two analyzers consume the assembled domain:
//
//   - lockguard infers a field's guard by dominant association: when a
//     lock of the field's own receiver type is held on a supermajority
//     of the field's accesses (at least three guarded sites for every
//     unguarded one), that lock is taken to guard the field, and the
//     minority accesses that do not hold it are flagged. An explicit
//     //wiscape:guardedby <lockField> annotation on the field
//     declaration pins the guard and skips the statistics.
//   - atomicmix flags fields accessed through sync/atomic (function
//     form or atomic.Int64-style typed values, including by-pointer
//     handoffs) in one place and by plain load/store in another — both
//     interleavings "work" under the race detector's schedules, which
//     is exactly why this bug class survives testing.
//
// Principled escapes, shared by both rules: accesses through a local
// born from a composite literal or new() in the same body (constructor
// initialization before the value can escape), sync/atomic accesses
// (lockguard only — they are atomicmix's subject), accesses in
// Close/Stop/Shutdown bodies and after a (*sync.WaitGroup).Wait call
// (teardown, when the writers are gone), and the audited
// //lint:ignore suppression every analyzer honors.
//
// The biases inherited from the call graph are deliberate: calls
// through interfaces, function values and closures contribute neither
// accesses nor caller edges, go statements contribute an *empty* caller
// context (a goroutine does not inherit its spawner's locks), and a
// deferred call's context is approximated by the held set at the defer
// statement. Every bias points toward missing a finding, never toward
// inventing one — with one documented exception: a helper reached only
// through locked call sites *and* an invisible unlocked path (interface
// dispatch, closure) can over-count its accesses as guarded, which can
// only promote a guard inference, and the flagged minority sites are
// real accesses either way.

// fieldAccess is one struct-field read or write observed in a function
// body, with the flow-sensitive lock context at that point.
type fieldAccess struct {
	key      string // "(core.Controller).zones"
	pos      token.Pos
	write    bool
	atomic   bool     // via sync/atomic (function or typed-value form)
	held     []string // lock identity keys held locally at the access
	ctor     bool     // through a constructor-fresh local
	teardown bool     // in a Close/Stop/Shutdown body or after wg.Wait()
}

// Access kind bits passed to recordAccess.
const (
	accessWrite = 1 << iota
	accessAtomic
)

// recordAccess appends one field access with the current lock and escape
// context.
func (w *lockFactsWalker) recordAccess(e ast.Expr, key string, held []heldLock, kind int) {
	w.ff.fieldAccesses = append(w.ff.fieldAccesses, fieldAccess{
		key:      key,
		pos:      e.Pos(),
		write:    kind&accessWrite != 0,
		atomic:   kind&accessAtomic != 0,
		held:     dedupHeldIDs(held),
		ctor:     w.baseIsFresh(e),
		teardown: w.teardown || w.afterWait,
	})
}

// fieldSel resolves e as a struct-field selection and returns its
// identity key. Fields whose own type is a sync primitive (Mutex,
// RWMutex, WaitGroup, …) are the locks, not the data, and are excluded;
// atomicTyped reports a sync/atomic typed value (atomic.Int64 and
// friends), whose method calls and by-pointer handoffs count as atomic
// accesses.
func (w *lockFactsWalker) fieldSel(e ast.Expr) (key string, atomicTyped bool, ok bool) {
	sel, okSel := ast.Unparen(e).(*ast.SelectorExpr)
	if !okSel {
		return "", false, false
	}
	fs, okFS := w.info.Selections[sel]
	if !okFS || fs.Kind() != types.FieldVal {
		return "", false, false
	}
	v, okVar := fs.Obj().(*types.Var)
	if !okVar || !v.IsField() {
		return "", false, false
	}
	if p, _, okN := namedIn(v.Type()); okN {
		if p == "sync" {
			return "", false, false
		}
		atomicTyped = p == "sync/atomic"
	}
	key = fieldPathKey(fs.Recv(), fs.Index())
	if key == "" {
		return "", false, false
	}
	return key, atomicTyped, true
}

// selBase returns the base expression of a selector chain (the x of
// x.f), or nil — what remains worth scanning after the selector itself
// has been recorded.
func selBase(e ast.Expr) ast.Expr {
	if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
		return sel.X
	}
	return nil
}

// baseIsFresh reports whether the root of e's access path is a
// constructor-fresh local (see freshLocals).
func (w *lockFactsWalker) baseIsFresh(e ast.Expr) bool {
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.Ident:
			if v, ok := w.info.Uses[t].(*types.Var); ok {
				return w.fresh[v]
			}
			return false
		default:
			return false
		}
	}
}

// freshLocals prescans a body for locals born from a composite literal,
// &literal, new(), or a zero-value var declaration: values that cannot
// have escaped to another goroutine yet, so initializing their fields
// without the (eventual) guard is the normal constructor shape, not a
// race. Reassignment later in the body is not tracked — the escape stays
// attached to the variable, a deliberate false-negative bias.
func freshLocals(info *types.Info, body *ast.BlockStmt) map[*types.Var]bool {
	fresh := make(map[*types.Var]bool)
	mark := func(id *ast.Ident, def bool) {
		var obj types.Object
		if def {
			obj = info.Defs[id]
		} else {
			obj = info.Uses[id]
		}
		if v, ok := obj.(*types.Var); ok && !v.IsField() && !pkgLevelVar(v) {
			fresh[v] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || !freshExpr(info, n.Rhs[i]) {
					continue
				}
				mark(id, n.Tok == token.DEFINE)
			}
		case *ast.ValueSpec:
			// var c counter (zero value) or var c = counter{...}.
			for i, id := range n.Names {
				if len(n.Values) == 0 || (i < len(n.Values) && freshExpr(info, n.Values[i])) {
					mark(id, true)
				}
			}
		}
		return true
	})
	return fresh
}

// freshExpr reports whether e constructs a brand-new value: T{...},
// &T{...}, or new(T).
func freshExpr(info *types.Info, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, ok := ast.Unparen(e.X).(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if b, okB := info.Uses[id].(*types.Builtin); okB && b.Name() == "new" {
				return true
			}
		}
	}
	return false
}

// teardownFuncName reports whether a function name marks its whole body
// as teardown: by the time Close/Stop/Shutdown runs, the concurrent
// phase is over by contract.
func teardownFuncName(name string) bool {
	switch strings.ToLower(name) {
	case "close", "stop", "shutdown", "teardown":
		return true
	}
	return false
}

// scanGuardDecls collects //wiscape:guardedby annotations attached to
// struct field declarations. The directive names a sibling lock field
// and pins the field's guard, replacing lockguard's supermajority
// inference for that field:
//
//	type Controller struct {
//		mu sync.Mutex
//		//wiscape:guardedby mu
//		zones map[string]*zoneState
//	}
func scanGuardDecls(info *types.Info, f *ast.File, out map[string]string) {
	if info == nil {
		return
	}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts, okTS := spec.(*ast.TypeSpec)
			if !okTS {
				continue
			}
			st, okST := ts.Type.(*ast.StructType)
			if !okST {
				continue
			}
			tn, okTN := info.Defs[ts.Name].(*types.TypeName)
			if !okTN || tn.Pkg() == nil {
				continue
			}
			owner := "(" + tn.Pkg().Name() + "." + tn.Name() + ")"
			for _, field := range st.Fields.List {
				guard := guardDirective(field.Doc)
				if guard == "" {
					guard = guardDirective(field.Comment)
				}
				if guard == "" {
					continue
				}
				for _, name := range field.Names {
					out[owner+"."+name.Name] = owner + "." + guard
				}
			}
		}
	}
}

// guardDirective extracts the lock name from a //wiscape:guardedby
// comment group, or "".
func guardDirective(cg *ast.CommentGroup) string {
	if cg == nil {
		return ""
	}
	for _, c := range cg.List {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(c.Text), "//wiscape:guardedby "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// computeCallerHeld runs the must-hold intersection over the call graph:
// for each function, the set of lock identities held at *every* known
// call site, caller contexts included transitively. Functions with no
// recorded callers (entry points, or targets only of unresolvable
// dispatch) are guaranteed nothing. The iteration is a standard
// descending Kleene fixed point — sets only shrink from the implicit
// "everything" start — so it terminates, and it walks facts.order so the
// result is deterministic run to run.
func computeCallerHeld(facts *Facts) map[types.Object]map[string]bool {
	type edge struct {
		caller types.Object
		held   []string
	}
	incoming := make(map[types.Object][]edge)
	for _, obj := range facts.order {
		for _, hc := range facts.funcs[obj].heldCalls {
			if _, known := facts.funcs[hc.callee]; !known {
				continue
			}
			incoming[hc.callee] = append(incoming[hc.callee], edge{caller: obj, held: hc.held})
		}
	}
	// state[fn] absent = still top (every lock, not yet lowered).
	state := make(map[types.Object]map[string]bool)
	for _, obj := range facts.order {
		if len(incoming[obj]) == 0 {
			state[obj] = map[string]bool{}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, obj := range facts.order {
			edges := incoming[obj]
			if len(edges) == 0 {
				continue
			}
			var meet map[string]bool // nil = no lowered caller seen yet
			for _, e := range edges {
				callerSet, lowered := state[e.caller]
				if !lowered {
					continue // top caller: contributes everything, no constraint
				}
				ctx := make(map[string]bool, len(callerSet)+len(e.held))
				for k := range callerSet {
					ctx[k] = true
				}
				for _, k := range e.held {
					ctx[k] = true
				}
				if meet == nil {
					meet = ctx
					continue
				}
				for k := range meet {
					if !ctx[k] {
						delete(meet, k)
					}
				}
			}
			if meet == nil {
				continue
			}
			if cur, lowered := state[obj]; !lowered || len(meet) != len(cur) {
				state[obj] = meet
				changed = true
			}
		}
	}
	// Call cycles with no entry edge never lower: dead code gets no
	// guarantees rather than infinite ones.
	for _, obj := range facts.order {
		if _, ok := state[obj]; !ok {
			state[obj] = map[string]bool{}
		}
	}
	return state
}

// fieldSite is one access joined with its enclosing function and
// effective held set (local ∪ guaranteed caller-held).
type fieldSite struct {
	fa  fieldAccess
	fn  types.Object
	eff map[string]bool
}

// Inference thresholds: a guard needs guardRatio guarded sites per
// unguarded one (a 75% supermajority) before the minority is flagged.
const guardRatio = 3

// computeFieldFindings assembles the whole-load field-access domain and
// runs both rules over it, returning the lockguard findings (accesses
// that do not hold the field's inferred or declared guard) and the
// atomicmix findings (plain accesses to a field accessed atomically
// elsewhere) in deterministic order.
func computeFieldFindings(facts *Facts, guardDecls map[string]string) (guards, mixes []Diagnostic) {
	callerHeld := computeCallerHeld(facts)
	groups := make(map[string][]fieldSite)
	var keys []string
	for _, obj := range facts.order {
		for _, fa := range facts.funcs[obj].fieldAccesses {
			eff := make(map[string]bool, len(fa.held)+len(callerHeld[obj]))
			for _, id := range fa.held {
				eff[id] = true
			}
			for id := range callerHeld[obj] {
				eff[id] = true
			}
			if _, seen := groups[fa.key]; !seen {
				keys = append(keys, fa.key)
			}
			groups[fa.key] = append(groups[fa.key], fieldSite{fa: fa, fn: obj, eff: eff})
		}
	}
	sort.Strings(keys)
	for _, key := range keys {
		sites := groups[key]
		guards = append(guards, lockguardFindings(key, sites, guardDecls[key])...)
		mixes = append(mixes, atomicmixFindings(key, sites)...)
	}
	return guards, mixes
}

// lockguardFindings applies the guard rule to one field's sites.
func lockguardFindings(key string, sites []fieldSite, declared string) []Diagnostic {
	// Escapes: atomic accesses belong to atomicmix; constructor and
	// teardown accesses are single-threaded by contract.
	var eligible []fieldSite
	for _, s := range sites {
		if !s.fa.atomic && !s.fa.ctor && !s.fa.teardown {
			eligible = append(eligible, s)
		}
	}
	var out []Diagnostic
	if declared != "" {
		for _, s := range eligible {
			if s.eff[declared] {
				continue
			}
			out = append(out, Diagnostic{Pos: s.fa.pos, Message: fmt.Sprintf(
				"field %s is annotated //wiscape:guardedby %s but this %s in %s does not hold %s: acquire it, or //lint:ignore lockguard <reason>",
				key, shortLockName(declared), accessWord(s.fa), shortFuncName(s.fn), declared)})
		}
		return out
	}
	// Inference: dominant association with a lock of the same receiver
	// type, counted over the effective (caller-inherited) held sets.
	owner := key[:strings.Index(key, ").")+1]
	counts := make(map[string]int)
	for _, s := range eligible {
		for id := range s.eff {
			if strings.HasPrefix(id, owner+".") {
				counts[id]++
			}
		}
	}
	best, bestN := "", 0
	for _, id := range sortedCountKeys(counts) {
		if counts[id] > bestN {
			best, bestN = id, counts[id]
		}
	}
	n := len(eligible)
	if best == "" || bestN == n || bestN < guardRatio*(n-bestN) {
		return nil
	}
	for _, s := range eligible {
		if s.eff[best] {
			continue
		}
		out = append(out, Diagnostic{Pos: s.fa.pos, Message: fmt.Sprintf(
			"field %s is guarded by %s on a supermajority of accesses but this %s in %s does not hold it: acquire %s, annotate the field //wiscape:guardedby %s, or //lint:ignore lockguard <reason>",
			key, best, accessWord(s.fa), shortFuncName(s.fn), best, shortLockName(best))})
	}
	return out
}

// atomicmixFindings applies the mixed-access rule to one field's sites.
func atomicmixFindings(key string, sites []fieldSite) []Diagnostic {
	var atomics, plains []fieldSite
	for _, s := range sites {
		switch {
		case s.fa.atomic:
			atomics = append(atomics, s)
		case !s.fa.ctor && !s.fa.teardown:
			plains = append(plains, s)
		}
	}
	if len(atomics) == 0 || len(plains) == 0 {
		return nil
	}
	where := shortFuncName(atomics[0].fn)
	var out []Diagnostic
	for _, s := range plains {
		out = append(out, Diagnostic{Pos: s.fa.pos, Message: fmt.Sprintf(
			"field %s is accessed via sync/atomic in %s but by a plain %s in %s: mixed atomic and plain access is a data race the race detector rarely schedules — make every access atomic, or guard all of them with one lock",
			key, where, accessWord(s.fa), shortFuncName(s.fn))})
	}
	return out
}

func accessWord(fa fieldAccess) string {
	if fa.write {
		return "write"
	}
	return "read"
}

// shortLockName strips a lock identity key to its field name, for the
// "//wiscape:guardedby mu" hint.
func shortLockName(id string) string {
	if i := strings.LastIndex(id, ")."); i >= 0 {
		return id[i+2:]
	}
	return id
}

func sortedCountKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
