package analysis

import (
	"go/ast"
)

// Wirebound enforces the bounded-input invariant at the protocol's edge:
// wire.Conn owns the cap — Send refuses frames over MaxMessageBytes and
// Recv reads through ReadLine, the bounded delimiter reader the replication
// stream reads through too — so the rest of the codebase must not
// re-implement the codec around it.
//
// The rule exempts package wire itself (the one place the raw codec
// legitimately lives): wire.Envelope must not be JSON-encoded or -decoded
// directly (json.Marshal/Unmarshal, Encoder.Encode/Decoder.Decode). A bare
// decode has no size cap, so one oversized frame can balloon memory; a bare
// encode skips the MaxMessageBytes refusal, producing frames the receiving
// Conn will reject after the bytes already crossed the network. Route
// envelopes through wire.Conn.
//
// Unbounded delimiter reads ((*bufio.Reader).ReadBytes/ReadString) are
// left to the line-cap tests (TestLineCapGoesByLeadByte, the WAL cursor's
// TestCursorSkipsOversizedLine), which fail on such a read of peer or log
// bytes; DESIGN.md §10's census planted both.
var Wirebound = &Analyzer{
	Name: "wirebound",
	Doc:  "wire.Envelope moves only through wire.Conn's size-capped codec",
	Run:  runWirebound,
}

func runWirebound(pass *Pass) error {
	if pass.Pkg.Path() == wirePkgPath {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pass.wireboundCheck(call)
			return true
		})
	}
	return nil
}

func (p *Pass) wireboundCheck(call *ast.CallExpr) {
	// json.Marshal / json.Unmarshal with an Envelope argument.
	if pkgPath, name, ok := p.pkgFunc(call); ok {
		if pkgPath == "encoding/json" && (name == "Marshal" || name == "Unmarshal" || name == "MarshalIndent") {
			for _, arg := range call.Args {
				if namedType(p.typeOf(arg), wirePkgPath, "Envelope") {
					p.Reportf(call.Pos(),
						"wire.Envelope passed to json.%s: MaxMessageBytes is not enforced outside wire.Conn; use Conn.Send/Recv",
						name)
					return
				}
			}
		}
		return
	}
	// json.Encoder.Encode / json.Decoder.Decode on an Envelope.
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	pkgPath, typeName, ok := namedIn(p.typeOf(sel.X))
	if !ok || pkgPath != "encoding/json" ||
		!((typeName == "Encoder" && sel.Sel.Name == "Encode") ||
			(typeName == "Decoder" && sel.Sel.Name == "Decode")) {
		return
	}
	for _, arg := range call.Args {
		if namedType(p.typeOf(arg), wirePkgPath, "Envelope") {
			p.Reportf(call.Pos(),
				"wire.Envelope passed to (*json.%s).%s: MaxMessageBytes is not enforced outside wire.Conn; use Conn.Send/Recv",
				typeName, sel.Sel.Name)
			return
		}
	}
}
