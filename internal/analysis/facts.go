package analysis

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis/load"
)

// This file is the interprocedural half of the suite: a two-pass facts
// engine mirroring golang.org/x/tools' go/analysis Facts. Pass 1 walks
// every loaded package once and records per-function facts (may-block,
// has-shutdown-signal, does-WaitGroup-accounting,
// returns-error-that-must-be-checked) keyed by the function's
// types.Object; a fixed-point pass then propagates those facts over the
// static call graph, so pass 2 — the analyzers — can ask "does anything
// this call reaches block?" instead of going blind one function deep.
//
// Whole-load domains run on top of the boolean facts: one lock walk
// (lockfacts.go — the held locks threaded through every body, read by
// lockio at each call and send, assembled into a global ordering graph
// whose cycles lockorder reports, and joined with every field access for
// lockguard and atomicmix in fieldfacts.go) and tainted lengths
// (taintfacts.go — integers read off the wire tracked to a fixed point
// through assignments, returns and arguments; unbounded arrivals at
// sizing sinks become taintalloc findings). Those five analyzers'
// verdicts are computed here, once per load, and only reported by their
// passes (reportFindings).
//
// The call graph is deliberately the cheap one: direct calls to named
// functions and methods resolved through types.Info. Calls through
// interfaces, function values and `go`/closure boundaries contribute no
// edges, which biases every fact toward false negatives — the right
// failure mode both for facts that *add* findings (lockio, errdrop) and
// for facts that *excuse* them (goleak's shutdown evidence is likewise
// only believed when it can be proven).

// FuncFacts are the propagated per-function facts.
type FuncFacts struct {
	// MayBlock: the function (or something it transitively calls)
	// performs blocking network I/O, a wire protocol call, or an
	// unconditional channel send. BlockVia names the evidence, e.g.
	// "net.Dial" or "(server).notify → channel send".
	MayBlock bool
	BlockVia string

	// ReturnsIOError: the function's last result is an error whose
	// plausible origin is I/O — it directly performs, or transitively
	// calls something that performs, a must-check I/O operation.
	// IOErrorKind is "file" for durability paths (os.File writes/fsync,
	// bufio flush, and everything layered on them, like the WAL) and
	// "net" for connection teardown and best-effort replies; "file" wins
	// when both contribute. IOErrorVia names the evidence chain.
	ReturnsIOError bool
	IOErrorKind    string
	IOErrorVia     string

	// ShutdownSignal: the function (transitively) selects or receives on
	// a done/ctx-style channel, or ranges over a channel — evidence that
	// a goroutine running it has a designed exit.
	ShutdownSignal bool

	// WGDone: the function (transitively) calls (*sync.WaitGroup).Done,
	// the other accepted goroutine-lifecycle evidence.
	WGDone bool

	// Acquires: identity keys of the locks this function may take,
	// directly or through its static call chain (see lockfacts.go).
	Acquires map[string]LockAcquire

	// callees are the static call edges used by the fixed point.
	callees []types.Object

	// lockEdges/heldCalls are the lock walk's scan-time evidence
	// (lockfacts.go); fieldAccesses are the field-access domain's
	// per-function records (fieldfacts.go); taint is the tainted-length
	// domain's per-function summary (taintfacts.go). All are consumed by
	// ComputeFacts.
	lockEdges     []lockEdge
	heldCalls     []heldCall
	fieldAccesses []fieldAccess
	taint         *taintSummary
}

// Facts indexes FuncFacts by function object. The zero/nil Facts is
// usable and knows nothing (every lookup returns nil). After
// ComputeFacts returns, a Facts value is read-only.
type Facts struct {
	funcs map[types.Object]*FuncFacts
	// order holds the functions in declaration order (packages as
	// loaded, files name-sorted, decls top to bottom); the fixed points
	// iterate it so via chains are deterministic run to run.
	order []types.Object
	// literalCalls are the lock walk's records from function literal
	// bodies, which have no facts of their own; only lockio reads them.
	literalCalls []heldCall
	// findings holds the whole-load analyzers' verdicts by analyzer name.
	findings map[string][]Diagnostic
}

// Findings returns the named analyzer's whole-load verdicts, before
// suppression, across every loaded package. Nil-safe.
func (f *Facts) Findings(analyzer string) []Diagnostic {
	if f == nil {
		return nil
	}
	return f.findings[analyzer]
}

// Of returns the facts for fn, or nil when unknown. Nil-safe.
func (f *Facts) Of(fn types.Object) *FuncFacts {
	if f == nil || fn == nil {
		return nil
	}
	return f.funcs[fn]
}

// ComputeFacts runs fact extraction over every function body in pkgs
// (a loader's Packages: the whole load), propagates the facts over the
// static call graph to a fixed point, and computes the whole-load
// analyzers' findings. Packages without type information are skipped
// (their functions simply have no facts, and the analyzers degrade to
// their intraprocedural selves).
func ComputeFacts(pkgs []*load.Package) *Facts {
	facts := &Facts{funcs: make(map[types.Object]*FuncFacts)}
	guardDecls := make(map[string]string)
	for _, p := range pkgs {
		if p == nil || p.Info == nil {
			continue
		}
		for _, f := range p.Files {
			scanGuardDecls(p.Info, f, guardDecls)
			funcScopes(f, func(fd *ast.FuncDecl, body *ast.BlockStmt) {
				if fd == nil {
					lit := &FuncFacts{}
					scanLockFacts(p.Info, nil, body, lit)
					facts.literalCalls = append(facts.literalCalls, lit.heldCalls...)
					return
				}
				fn, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					return
				}
				ff := &FuncFacts{}
				scanBodyFacts(p.Info, body, ff)
				scanLockFacts(p.Info, fd, body, ff)
				ff.taint = scanTaintSummary(p.Info, fd)
				if !funcReturnsError(fn) {
					// Only error-returning functions can carry the
					// must-check obligation to their callers.
					ff.ReturnsIOError = false
					ff.IOErrorKind = ""
					ff.IOErrorVia = ""
				}
				facts.funcs[fn] = ff
				facts.order = append(facts.order, fn)
			})
		}
	}
	// Fixed point: every fact is a monotone boolean (plus a one-way
	// net→file kind upgrade), so iterating until quiescent terminates.
	// Iteration follows declaration order so the Via evidence chains are
	// stable run to run.
	for changed := true; changed; {
		changed = false
		for _, obj := range facts.order {
			ff := facts.funcs[obj]
			for _, callee := range ff.callees {
				cf := facts.funcs[callee]
				if cf == nil {
					continue
				}
				if cf.MayBlock && !ff.MayBlock {
					ff.MayBlock = true
					ff.BlockVia = shortFuncName(callee) + " → " + cf.BlockVia
					changed = true
				}
				if cf.ShutdownSignal && !ff.ShutdownSignal {
					ff.ShutdownSignal = true
					changed = true
				}
				if cf.WGDone && !ff.WGDone {
					ff.WGDone = true
					changed = true
				}
				if cf.ReturnsIOError && funcReturnsError(obj) {
					if !ff.ReturnsIOError {
						ff.ReturnsIOError = true
						ff.IOErrorKind = cf.IOErrorKind
						ff.IOErrorVia = shortFuncName(callee) + " → " + cf.IOErrorVia
						changed = true
					} else if ff.IOErrorKind == "net" && cf.IOErrorKind == "file" {
						ff.IOErrorKind = "file"
						changed = true
					}
				}
			}
		}
	}
	// The whole-load domains run after the boolean facts: lockio reads
	// MayBlock, lock acquisitions close over the call graph and the
	// ordering graph is mined for cycles, then length taint propagates
	// through locals, returns and arguments until quiescent.
	propagateLockAcquires(facts)
	facts.findings = map[string][]Diagnostic{
		Lockio.Name:     computeLockioFindings(facts),
		Lockorder.Name:  computeLockCycles(facts),
		Taintalloc.Name: computeTaintFindings(facts),
	}
	facts.findings[Lockguard.Name], facts.findings[Atomicmix.Name] = computeFieldFindings(facts, guardDecls)
	return facts
}

// scanBodyFacts extracts local (intraprocedural) fact evidence and call
// edges from one function body. Nested function literals are skipped:
// their bodies run later, on their own stack, under their own locks.
// goleak reuses it directly on spawned literal bodies.
func scanBodyFacts(info *types.Info, body *ast.BlockStmt, ff *FuncFacts) {
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			// The spawned call runs asynchronously: it contributes neither
			// blocking behavior nor shutdown evidence to this function.
			// Its arguments are still evaluated here.
			for _, arg := range n.Call.Args {
				ast.Inspect(arg, walk)
			}
			return false
		case *ast.SendStmt:
			if !ff.MayBlock {
				ff.MayBlock = true
				ff.BlockVia = "channel send"
			}
		case *ast.SelectStmt:
			scanSelectFacts(info, n, ff, walk)
			return false
		case *ast.UnaryExpr:
			if isShutdownRecv(info, n) {
				ff.ShutdownSignal = true
			}
		case *ast.RangeStmt:
			if info != nil {
				if t := info.Types[n.X].Type; t != nil {
					if _, ok := t.Underlying().(*types.Chan); ok {
						// Ranging a channel ends when the channel is
						// closed — a designed exit.
						ff.ShutdownSignal = true
					}
				}
			}
		case *ast.CallExpr:
			scanCallFacts(info, n, ff)
		}
		return true
	}
	ast.Inspect(body, walk)
}

// scanSelectFacts handles the one non-uniform construct: sends that sit
// in a select with a default case are non-blocking, and any receive comm
// case counts as shutdown evidence when its channel looks like a
// done/ctx signal.
func scanSelectFacts(info *types.Info, sel *ast.SelectStmt, ff *FuncFacts, walk func(ast.Node) bool) {
	hasDefault := false
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			hasDefault = true
		}
	}
	for _, c := range sel.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		switch comm := cc.Comm.(type) {
		case *ast.SendStmt:
			if !hasDefault && !ff.MayBlock {
				ff.MayBlock = true
				ff.BlockVia = "channel send"
			}
		case *ast.ExprStmt:
			if ue, ok := comm.X.(*ast.UnaryExpr); ok && isShutdownRecv(info, ue) {
				ff.ShutdownSignal = true
			}
		case *ast.AssignStmt:
			for _, rhs := range comm.Rhs {
				if ue, ok := rhs.(*ast.UnaryExpr); ok && isShutdownRecv(info, ue) {
					ff.ShutdownSignal = true
				}
			}
		}
		for _, st := range cc.Body {
			ast.Inspect(st, walk)
		}
	}
}

// scanCallFacts classifies one call: intrinsic blocking I/O, intrinsic
// must-check I/O error, WaitGroup accounting, or a call-graph edge to a
// module function whose facts the fixed point will consult.
func scanCallFacts(info *types.Info, call *ast.CallExpr, ff *FuncFacts) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return
	}
	if desc, ok := intrinsicMayBlock(fn); ok && !ff.MayBlock {
		ff.MayBlock = true
		ff.BlockVia = desc
	}
	if kind, desc, ok := intrinsicIOError(fn); ok {
		if !ff.ReturnsIOError || (ff.IOErrorKind == "net" && kind == "file") {
			ff.ReturnsIOError = true
			ff.IOErrorKind = kind
			if ff.IOErrorVia == "" {
				ff.IOErrorVia = desc
			}
		}
	}
	if isWaitGroupMethod(fn, "Done") {
		ff.WGDone = true
	}
	ff.callees = append(ff.callees, fn)
}

// calleeFunc resolves a call expression to the named function or method
// it statically invokes, or nil (interface calls stay resolvable — the
// *types.Func is the interface method — but calls through function
// values and conversions do not).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	if info == nil {
		return nil
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isShutdownRecv reports whether ue is `<-x` with x a plausible shutdown
// signal: a call to a context's Done method, or a channel expression
// whose name suggests lifecycle ("done", "stop", "quit", "closing", …).
func isShutdownRecv(info *types.Info, ue *ast.UnaryExpr) bool {
	if ue.Op.String() != "<-" {
		return false
	}
	x := ast.Unparen(ue.X)
	if call, ok := x.(*ast.CallExpr); ok {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
			return true
		}
		return false
	}
	return doneishName(exprString(x))
}

// doneishChanNames are the lifecycle-channel spellings isShutdownRecv
// accepts, matched case-insensitively against the last path element.
var doneishChanNames = []string{"done", "stop", "quit", "close", "shut", "exit", "cancel"}

func doneishName(s string) bool {
	if i := strings.LastIndexByte(s, '.'); i >= 0 {
		s = s[i+1:]
	}
	if s == "" {
		return false
	}
	s = strings.ToLower(s)
	for _, frag := range doneishChanNames {
		if strings.Contains(s, frag) {
			return true
		}
	}
	return false
}

// isWaitGroupMethod reports whether fn is (*sync.WaitGroup).<name>.
func isWaitGroupMethod(fn *types.Func, name string) bool {
	if fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return namedType(sig.Recv().Type(), "sync", "WaitGroup")
}

// intrinsicMayBlock seeds the blocking facts at the API boundary lockio
// already enforces directly: net dials/listens, net.Conn-family I/O
// methods, and wire.Conn protocol calls. File I/O is deliberately
// excluded — the WAL holds its lock across fsync by design, and lockio's
// charter is network I/O and channel sends.
func intrinsicMayBlock(fn *types.Func) (string, bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return "", false
	}
	sig, _ := fn.Type().(*types.Signature)
	hasRecv := sig != nil && sig.Recv() != nil
	switch {
	case pkg.Path() == "net" && !hasRecv:
		switch fn.Name() {
		case "Dial", "DialTimeout", "Listen":
			return "net." + fn.Name(), true
		}
	case pkg.Path() == "net" && hasRecv:
		if netIOMethods[fn.Name()] {
			if _, tn, ok := namedIn(sig.Recv().Type()); ok {
				return "(net." + tn + ")." + fn.Name(), true
			}
			if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
				return "(net interface)." + fn.Name(), true
			}
		}
	case pkg.Path() == wirePkgPath && hasRecv:
		if wireIOMethods[fn.Name()] {
			if _, tn, ok := namedIn(sig.Recv().Type()); ok && tn == "Conn" {
				return "(wire.Conn)." + fn.Name(), true
			}
		}
	}
	return "", false
}

// intrinsicIOError classifies stdlib-boundary methods whose error result
// must not be dropped, returning the path kind ("file" for durability,
// "net" for connection teardown/replies) and a short description.
func intrinsicIOError(fn *types.Func) (kind, desc string, ok bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return "", "", false
	}
	sig, okSig := fn.Type().(*types.Signature)
	if !okSig || sig.Recv() == nil || !signatureReturnsError(sig) {
		return "", "", false
	}
	recvPkg, recvName, named := namedIn(sig.Recv().Type())
	if !named {
		// Interface receivers (io.Closer and friends) still carry the
		// obligation; the kind defaults to the lenient net bucket.
		if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface && closeFlushSync(fn.Name()) {
			return "net", "(" + pkg.Name() + " interface)." + fn.Name(), true
		}
		return "", "", false
	}
	display := "(" + pkg.Name() + "." + recvName + ")." + fn.Name()
	switch {
	case recvPkg == "os" && recvName == "File":
		switch fn.Name() {
		case "Close", "Sync", "Truncate", "Write", "WriteString", "WriteAt":
			return "file", display, true
		}
	case recvPkg == "bufio" && recvName == "Writer" && fn.Name() == "Flush":
		return "file", display, true
	case closeFlushSync(fn.Name()) && isStdlibPath(recvPkg):
		// Generic stdlib Close/Flush/Sync returning error: net-ish
		// teardown. Module types are left to their own facts, which
		// refine the kind from the evidence inside their bodies.
		return "net", display, true
	}
	return "", "", false
}

func closeFlushSync(name string) bool {
	return name == "Close" || name == "Flush" || name == "Sync"
}

// isStdlibPath is the crude but sufficient test: module import paths
// start with the module name; stdlib paths are bare.
func isStdlibPath(path string) bool {
	first, _, _ := strings.Cut(path, "/")
	return !strings.Contains(first, ".") && first != "repro"
}

// signatureReturnsError reports whether sig's last result is error.
func signatureReturnsError(sig *types.Signature) bool {
	res := sig.Results()
	if res == nil || res.Len() == 0 {
		return false
	}
	last := res.At(res.Len() - 1).Type()
	return types.Identical(last, types.Universe.Lookup("error").Type())
}

// funcReturnsError reports whether obj is a function whose final result
// is error.
func funcReturnsError(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	return signatureReturnsError(sig)
}

// shortFuncName renders fn for diagnostics: "remote.Dial" for package
// functions, "(Store).Close" for methods.
func shortFuncName(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok {
		return obj.Name()
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if _, tn, ok := namedIn(sig.Recv().Type()); ok {
			return "(" + tn + ")." + fn.Name()
		}
		return fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}
