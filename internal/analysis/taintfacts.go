package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the tainted-length fact domain: integers read off the
// wire (binary.ByteOrder Uint32/Uint64, binary.ReadUvarint/ReadVarint —
// the decode primitives the frame protocols and the upcoming binary wire
// codec are built from) are tracked through assignments, returns and
// call arguments to a fixed point over the whole load, and every tainted
// value that reaches an allocation-sized sink — make, io.ReadFull/
// ReadAtLeast/CopyN, bufio.NewReaderSize/NewWriterSize, Buffer/Builder
// Grow, slices.Grow — without a dominating bound check becomes a
// taintalloc finding.
//
// The approximations all bias toward false negatives, the right failure
// mode for a gate that must not cry wolf:
//
//   - a variable or parameter is "bounded" if it appears in any
//     comparison anywhere in the function body (flow-insensitive — the
//     repo convention is to check first, and a check anywhere is taken
//     as the author having thought about the bound);
//   - %, & and len() launder taint (they bound the result by
//     construction or derive it from local data);
//   - Uint16/Uint8 reads are not sources: a 16-bit length can allocate
//     at most 64 KiB;
//   - taint does not flow through struct fields, slices/maps, globals,
//     channels, or function values — only through locals, integer
//     returns and call arguments.

// taintOriginKind classifies where a value's taint would come from.
type taintOriginKind uint8

const (
	originSource taintOriginKind = iota // intrinsic network-length read
	originVar                           // named local variable
	originParam                         // parameter of the enclosing function
	originRet                           // integer result of a called function
)

type taintOrigin struct {
	kind taintOriginKind
	name string       // originVar: variable name; originSource: description
	fn   types.Object // originRet: the callee
	idx  int          // originParam: parameter index
}

// taintAssign is one "name may take these origins" edge, in body order.
type taintAssign struct {
	name    string
	origins []taintOrigin
}

// taintSink is a sizing sink with the origins feeding its length.
type taintSink struct {
	pos     token.Pos
	what    string // e.g. "make([]byte, …)" or "io.CopyN"
	origins []taintOrigin
}

// taintArgFlow propagates taint into a callee's parameter.
type taintArgFlow struct {
	callee  types.Object
	idx     int
	origins []taintOrigin
}

// taintSummary is the per-function summary the global fixed point runs
// over; scan-time only, resolved lazily against other functions' state.
type taintSummary struct {
	params  []string // parameter names by index ("" when unnamed)
	assigns []taintAssign
	rets    [][]taintOrigin // origins of integer-typed return expressions
	flows   []taintArgFlow
	sinks   []taintSink
	bounded map[string]bool // names compared somewhere in the body
}

// scanTaintSummary builds the taint summary for one declared function.
func scanTaintSummary(info *types.Info, fd *ast.FuncDecl) *taintSummary {
	if info == nil || fd.Body == nil {
		return nil
	}
	ts := &taintSummary{bounded: make(map[string]bool)}
	sc := &taintScanner{info: info, ts: ts, paramIdx: make(map[types.Object]int)}
	if fd.Type.Params != nil {
		for _, fld := range fd.Type.Params.List {
			if len(fld.Names) == 0 {
				ts.params = append(ts.params, "")
				continue
			}
			for _, nm := range fld.Names {
				if obj := info.Defs[nm]; obj != nil {
					sc.paramIdx[obj] = len(ts.params)
				}
				ts.params = append(ts.params, nm.Name)
			}
		}
	}
	ast.Inspect(fd.Body, sc.visit)
	return ts
}

type taintScanner struct {
	info     *types.Info
	ts       *taintSummary
	paramIdx map[types.Object]int
}

func (sc *taintScanner) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.FuncLit:
		return false
	case *ast.AssignStmt:
		sc.assign(n)
	case *ast.ValueSpec:
		for i, nm := range n.Names {
			if i < len(n.Values) {
				sc.assignOne(nm, sc.originsOf(n.Values[i]))
			}
		}
	case *ast.ReturnStmt:
		for _, e := range n.Results {
			if !intType(sc.exprType(e)) {
				continue
			}
			if org := sc.originsOf(e); len(org) > 0 {
				sc.ts.rets = append(sc.ts.rets, org)
			}
		}
	case *ast.BinaryExpr:
		switch n.Op {
		case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
			sc.markBounded(n.X)
			sc.markBounded(n.Y)
		}
	case *ast.CallExpr:
		sc.call(n)
	}
	return true
}

// markBounded records that the named value was compared against
// something, unwrapping conversions so `if uint32(len(p)) < n` bounds n.
func (sc *taintScanner) markBounded(e ast.Expr) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.CallExpr:
			if tv, ok := sc.info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
				e = x.Args[0]
				continue
			}
		case *ast.Ident:
			sc.ts.bounded[x.Name] = true
		}
		return
	}
}

func (sc *taintScanner) assign(as *ast.AssignStmt) {
	switch {
	case len(as.Lhs) == len(as.Rhs):
		for i, lhs := range as.Lhs {
			sc.assignOne(lhs, sc.originsOf(as.Rhs[i]))
		}
	case len(as.Rhs) == 1:
		// Multi-value call: every integer-typed result position inherits
		// the call's origins.
		org := sc.originsOf(as.Rhs[0])
		for _, lhs := range as.Lhs {
			sc.assignOne(lhs, org)
		}
	}
}

func (sc *taintScanner) assignOne(lhs ast.Expr, origins []taintOrigin) {
	if len(origins) == 0 {
		return
	}
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" || !intType(sc.exprType(id)) {
		return
	}
	sc.ts.assigns = append(sc.ts.assigns, taintAssign{name: id.Name, origins: origins})
}

// call classifies one call: a sizing sink, or argument flow into a
// function the fixed point knows.
func (sc *taintScanner) call(call *ast.CallExpr) {
	if tv, ok := sc.info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion, handled transparently by originsOf
	}
	if what, args, ok := sc.sinkArgs(call); ok {
		var org []taintOrigin
		for _, a := range args {
			org = append(org, sc.originsOf(a)...)
		}
		if len(org) > 0 {
			sc.ts.sinks = append(sc.ts.sinks, taintSink{pos: call.Pos(), what: what, origins: org})
		}
		return
	}
	fn := calleeFunc(sc.info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	for i, a := range call.Args {
		if !intType(sc.exprType(a)) {
			continue
		}
		if org := sc.originsOf(a); len(org) > 0 {
			sc.ts.flows = append(sc.ts.flows, taintArgFlow{callee: fn, idx: i, origins: org})
		}
	}
}

// sinkArgs recognizes the sizing sinks and returns the expressions that
// carry the (possibly tainted) length.
func (sc *taintScanner) sinkArgs(call *ast.CallExpr) (what string, args []ast.Expr, ok bool) {
	if id, okID := ast.Unparen(call.Fun).(*ast.Ident); okID && id.Name == "make" {
		if _, isBuiltin := sc.info.Uses[id].(*types.Builtin); isBuiltin && len(call.Args) >= 2 {
			return "make(" + types.ExprString(call.Args[0]) + ", …)", call.Args[1:], true
		}
	}
	fn := calleeFunc(sc.info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", nil, false
	}
	pkg, name := fn.Pkg().Path(), fn.Name()
	sig, _ := fn.Type().(*types.Signature)
	hasRecv := sig != nil && sig.Recv() != nil
	switch {
	case pkg == "io" && !hasRecv && name == "ReadFull" && len(call.Args) >= 2:
		// The length rides in the buffer argument, commonly buf[:n];
		// originsOf extracts slice indices, so a whole (already-reported)
		// tainted buffer does not double-report here.
		return "io.ReadFull", call.Args[1:2], true
	case pkg == "io" && !hasRecv && name == "ReadAtLeast" && len(call.Args) >= 3:
		return "io.ReadAtLeast", call.Args[1:3], true
	case pkg == "io" && !hasRecv && name == "CopyN" && len(call.Args) >= 3:
		return "io.CopyN", call.Args[2:3], true
	case pkg == "bufio" && !hasRecv && (name == "NewReaderSize" || name == "NewWriterSize") && len(call.Args) >= 2:
		return "bufio." + name, call.Args[1:2], true
	case pkg == "slices" && !hasRecv && name == "Grow" && len(call.Args) >= 2:
		return "slices.Grow", call.Args[1:2], true
	case hasRecv && name == "Grow" && len(call.Args) >= 1 &&
		(namedType(sig.Recv().Type(), "bytes", "Buffer") || namedType(sig.Recv().Type(), "strings", "Builder")):
		_, tn, _ := namedIn(sig.Recv().Type())
		return "(" + fn.Pkg().Name() + "." + tn + ").Grow", call.Args[:1], true
	}
	return "", nil, false
}

// originsOf evaluates where e's value could derive from, symbolically:
// intrinsic sources, named locals, parameters, and integer returns of
// resolvable calls. Arithmetic unions its operands; % and & sanitize.
func (sc *taintScanner) originsOf(e ast.Expr) []taintOrigin {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, ok := sc.objOf(e).(*types.Var)
		if !ok {
			return nil
		}
		if i, isParam := sc.paramIdx[v]; isParam {
			if intType(v.Type()) {
				return []taintOrigin{{kind: originParam, idx: i, name: v.Name()}}
			}
			return nil
		}
		if v.Pkg() != nil && v.Parent() != nil && v.Parent() != v.Pkg().Scope() && !v.IsField() {
			return []taintOrigin{{kind: originVar, name: v.Name()}}
		}
		return nil
	case *ast.CallExpr:
		if tv, ok := sc.info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return sc.originsOf(e.Args[0]) // conversions are transparent
		}
		fn := calleeFunc(sc.info, e)
		if fn == nil {
			return nil
		}
		if desc, ok := taintSource(fn); ok {
			return []taintOrigin{{kind: originSource, name: desc}}
		}
		if fn.Pkg() != nil {
			return []taintOrigin{{kind: originRet, fn: fn}}
		}
		return nil
	case *ast.BinaryExpr:
		switch e.Op {
		case token.REM, token.AND:
			return nil // n % k and n & mask are bounded by construction
		}
		return append(sc.originsOf(e.X), sc.originsOf(e.Y)...)
	case *ast.UnaryExpr:
		return sc.originsOf(e.X)
	case *ast.SliceExpr:
		var out []taintOrigin
		for _, ix := range []ast.Expr{e.Low, e.High, e.Max} {
			if ix != nil {
				out = append(out, sc.originsOf(ix)...)
			}
		}
		return out
	}
	// Selector (struct fields), index, composite and everything else:
	// untracked, see the false-negative ledger above.
	return nil
}

func (sc *taintScanner) objOf(id *ast.Ident) types.Object {
	if o := sc.info.Defs[id]; o != nil {
		return o
	}
	return sc.info.Uses[id]
}

func (sc *taintScanner) exprType(e ast.Expr) types.Type {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if obj := sc.objOf(id); obj != nil {
			return obj.Type()
		}
	}
	if tv, ok := sc.info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

func intType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// taintSource recognizes the intrinsic length sources. 8/16-bit reads
// are excluded: they bound their own result.
func taintSource(fn *types.Func) (string, bool) {
	pkg := fn.Pkg()
	if pkg == nil || pkg.Path() != "encoding/binary" {
		return "", false
	}
	sig, _ := fn.Type().(*types.Signature)
	switch fn.Name() {
	case "Uint32", "Uint64":
		if sig != nil && sig.Recv() != nil { // ByteOrder method
			return "binary." + fn.Name(), true
		}
	case "ReadUvarint", "ReadVarint":
		if sig != nil && sig.Recv() == nil {
			return "binary." + fn.Name(), true
		}
	}
	return "", false
}

// taintState is the per-function dynamic half of the fixed point.
type taintState struct {
	vars       map[string]string // local name -> via chain
	params     map[int]string    // parameter index -> via chain
	retTainted bool
	retVia     string
}

// computeTaintFindings runs the global fixed point over every scanned
// summary and evaluates the sinks: each tainted one is a taintalloc
// finding naming the derivation chain back to the network read (e.g.
// "codec.FrameLen → binary.Uint64"). Iteration follows facts.order, so
// via chains and finding order are deterministic run to run.
func computeTaintFindings(facts *Facts) []Diagnostic {
	states := make(map[types.Object]*taintState)
	for _, fn := range facts.order {
		if facts.funcs[fn].taint != nil {
			states[fn] = &taintState{vars: make(map[string]string), params: make(map[int]string)}
		}
	}
	resolve := func(fn types.Object, origins []taintOrigin) (string, bool) {
		st, sum := states[fn], facts.funcs[fn].taint
		for _, o := range origins {
			switch o.kind {
			case originSource:
				return o.name, true
			case originVar:
				if sum.bounded[o.name] {
					continue
				}
				if via, ok := st.vars[o.name]; ok {
					return via, true
				}
			case originParam:
				if o.name != "" && sum.bounded[o.name] {
					continue
				}
				if via, ok := st.params[o.idx]; ok {
					return via, true
				}
			case originRet:
				if cs := states[o.fn]; cs != nil && cs.retTainted {
					return shortFuncName(o.fn) + " → " + cs.retVia, true
				}
			}
		}
		return "", false
	}

	for changed := true; changed; {
		changed = false
		for _, fn := range facts.order {
			sum := facts.funcs[fn].taint
			if sum == nil {
				continue
			}
			st := states[fn]
			for _, as := range sum.assigns {
				if sum.bounded[as.name] {
					continue
				}
				if _, ok := st.vars[as.name]; ok {
					continue
				}
				if via, ok := resolve(fn, as.origins); ok {
					st.vars[as.name] = via
					changed = true
				}
			}
			if !st.retTainted {
				for _, org := range sum.rets {
					if via, ok := resolve(fn, org); ok {
						st.retTainted = true
						st.retVia = via
						changed = true
						break
					}
				}
			}
			for _, fl := range sum.flows {
				cs := states[fl.callee]
				if cs == nil {
					continue
				}
				csum := facts.funcs[fl.callee].taint
				if fl.idx >= len(csum.params) {
					continue // variadic overflow: untracked
				}
				pname := csum.params[fl.idx]
				if pname == "" || pname == "_" || csum.bounded[pname] {
					continue
				}
				if _, ok := cs.params[fl.idx]; ok {
					continue
				}
				if via, ok := resolve(fn, fl.origins); ok {
					cs.params[fl.idx] = via + " (argument from " + shortFuncName(fn) + ")"
					changed = true
				}
			}
		}
	}

	var findings []Diagnostic
	for _, fn := range facts.order {
		sum := facts.funcs[fn].taint
		if sum == nil {
			continue
		}
		for _, sk := range sum.sinks {
			if via, ok := resolve(fn, sk.origins); ok {
				findings = append(findings, Diagnostic{Pos: sk.pos, Message: sk.what + " sized by network-read value (" + via +
					") with no dominating bound check: compare against a limit first"})
			}
		}
	}
	return findings
}
