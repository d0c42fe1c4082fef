package analysis

import (
	"go/ast"
)

// Wirebound enforces the bounded-input invariant: every byte stream the
// process does not control (peer connections, on-disk journals that may be
// corrupt or hostile) must be read through a size-capped path. wire.Conn
// owns the protocol's cap — Send refuses frames over MaxMessageBytes and
// Recv reads through ReadLine, the bounded delimiter reader the replication
// stream reads through too — so the rest of the codebase must not
// re-implement the codec around it.
//
// Two rules, both exempting package wire itself (the one place the raw
// codec legitimately lives):
//
//  1. wire.Envelope must not be JSON-encoded or -decoded directly
//     (json.Marshal/Unmarshal, Encoder.Encode/Decoder.Decode). A bare
//     decode has no size cap, so one oversized frame can balloon memory;
//     a bare encode skips the MaxMessageBytes refusal, producing frames
//     the receiving Conn will reject after the bytes already crossed the
//     network. Route envelopes through wire.Conn.
//
//  2. No (*bufio.Reader).ReadBytes / ReadString on any input: both
//     accumulate until the delimiter with no bound, so a corrupt WAL line
//     or a hostile peer that never sends '\n' grows the buffer without
//     limit. Use bufio.Scanner (bounded token size) or wire.ReadLine.
var Wirebound = &Analyzer{
	Name: "wirebound",
	Doc: "wire.Envelope moves only through wire.Conn's size-capped codec, and " +
		"delimiter reads of untrusted input must be bounded",
	Run: runWirebound,
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
	// Rule 1a: json.Marshal / json.Unmarshal with an Envelope argument.
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
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	pkgPath, typeName, ok := namedIn(p.typeOf(sel.X))
	if !ok {
		return
	}
	// Rule 1b: json.Encoder.Encode / json.Decoder.Decode on an Envelope.
	if pkgPath == "encoding/json" &&
		((typeName == "Encoder" && sel.Sel.Name == "Encode") ||
			(typeName == "Decoder" && sel.Sel.Name == "Decode")) {
		for _, arg := range call.Args {
			if namedType(p.typeOf(arg), wirePkgPath, "Envelope") {
				p.Reportf(call.Pos(),
					"wire.Envelope passed to (*json.%s).%s: MaxMessageBytes is not enforced outside wire.Conn; use Conn.Send/Recv",
					typeName, sel.Sel.Name)
				return
			}
		}
	}
	// Rule 2: unbounded delimiter reads.
	if pkgPath == "bufio" && typeName == "Reader" &&
		(sel.Sel.Name == "ReadBytes" || sel.Sel.Name == "ReadString") {
		p.Reportf(call.Pos(),
			"unbounded (*bufio.Reader).%s: the line grows without limit on corrupt or hostile input; use a capped ReadSlice loop or bufio.Scanner",
			sel.Sel.Name)
	}
}
