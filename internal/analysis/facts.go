package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis/load"
)

// This file is the interprocedural half of the suite: a facts engine
// mirroring golang.org/x/tools' go/analysis Facts. Every function body in
// the load is walked once (lockfacts.go's lock walk), and that one walk
// records everything the engine knows about the body: the innermost held
// lock at each call and send, and the local evidence for the boolean facts
// (may-block, has-shutdown-signal, does-WaitGroup-accounting,
// returns-error-that-must-be-checked) and the call edges, keyed by the
// function's types.Object. One ascending fixed point then closes the
// boolean facts over the static call graph, so the analyzers can ask "does
// anything this call reaches block?" instead of going blind one function
// deep.
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

	// callees are the static call edges used by the fixed point.
	callees []types.Object
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
	// literals are the lock walk's records of function literal bodies,
	// which take no part in the fixed point: goleak reads a spawned
	// literal's evidence here.
	literals map[*ast.BlockStmt]*FuncFacts
	// heldCalls are the calls and sends the lock walk found under a lock,
	// in every body of the load, declared or literal: what lockio checks.
	heldCalls []heldCall
}

// Of returns the facts for fn, or nil when unknown. Nil-safe.
func (f *Facts) Of(fn types.Object) *FuncFacts {
	if f == nil || fn == nil {
		return nil
	}
	return f.funcs[fn]
}

// literal returns the walk's record of a function literal's body, or nil.
// Nil-safe.
func (f *Facts) literal(body *ast.BlockStmt) *FuncFacts {
	if f == nil {
		return nil
	}
	return f.literals[body]
}

// ComputeFacts runs fact extraction over every function body in pkgs
// (a loader's Packages: the whole load) and propagates the facts over the
// static call graph to a fixed point. Packages without type information are skipped
// (their functions simply have no facts, and the analyzers degrade to
// their intraprocedural selves).
func ComputeFacts(pkgs []*load.Package) *Facts {
	facts := &Facts{funcs: make(map[types.Object]*FuncFacts), literals: make(map[*ast.BlockStmt]*FuncFacts)}
	for _, p := range pkgs {
		if p == nil || p.Info == nil {
			continue
		}
		for _, f := range p.Files {
			funcScopes(f, func(fd *ast.FuncDecl, body *ast.BlockStmt) {
				ff := &FuncFacts{}
				scanLockFacts(p.Info, body, ff, &facts.heldCalls)
				if fd == nil {
					facts.literals[body] = ff
					return
				}
				fn, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					return
				}
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
	// One ascending fixed point: every fact only grows (booleans turn
	// true, a net kind upgrades to file), so
	// iterating until quiescent terminates. Iteration follows declaration
	// order so the Via evidence chains are stable run to run.
	for changed := true; changed; {
		changed = false
		for _, obj := range facts.order {
			ff := facts.funcs[obj]
			returnsError := funcReturnsError(obj)
			for _, callee := range ff.callees {
				if cf := facts.funcs[callee]; cf != nil && callee != obj && ff.absorb(callee, cf, returnsError) {
					changed = true
				}
			}
		}
	}
	return facts
}

// absorb joins what the callee may do into ff's facts, naming the callee
// in each newly gained Via chain, and reports whether anything grew.
func (ff *FuncFacts) absorb(callee types.Object, cf *FuncFacts, returnsError bool) bool {
	via := func(rest string) string {
		if rest == "" {
			return shortFuncName(callee)
		}
		return shortFuncName(callee) + " → " + rest
	}
	changed := false
	if cf.MayBlock && !ff.MayBlock {
		ff.blocks(via(cf.BlockVia))
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
	if cf.ReturnsIOError && returnsError && ff.ioError(cf.IOErrorKind, via(cf.IOErrorVia)) {
		changed = true
	}
	return changed
}

// blocks records may-block evidence; the first evidence found is kept.
func (ff *FuncFacts) blocks(via string) {
	if !ff.MayBlock {
		ff.MayBlock, ff.BlockVia = true, via
	}
}

// ioError records must-check I/O error evidence of the given kind: the
// first evidence names the chain, and a later file kind upgrades net.
func (ff *FuncFacts) ioError(kind, via string) bool {
	switch {
	case !ff.ReturnsIOError:
		ff.ReturnsIOError, ff.IOErrorKind, ff.IOErrorVia = true, kind, via
	case ff.IOErrorKind == "net" && kind == "file":
		ff.IOErrorKind = "file"
	default:
		return false
	}
	return true
}

// noteCall records one statically resolved call made by the function:
// intrinsic blocking I/O, intrinsic must-check I/O error, WaitGroup
// accounting, and the call-graph edge the fixed point follows.
func (ff *FuncFacts) noteCall(fn *types.Func) {
	if desc, ok := intrinsicMayBlock(fn); ok {
		ff.blocks(desc)
	}
	if kind, desc, ok := intrinsicIOError(fn); ok {
		ff.ioError(kind, desc)
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
func isShutdownRecv(ue *ast.UnaryExpr) bool {
	if ue.Op != token.ARROW {
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
