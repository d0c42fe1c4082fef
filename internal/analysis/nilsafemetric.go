package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Nilsafemetric enforces the telemetry contract's construction rule:
// instruments (telemetry.Counter, Gauge, Histogram, and their Vec types)
// must not be constructed with composite literals or new() outside package
// telemetry itself. A hand-built instrument is disconnected from every
// exposition surface; Registry resolution (reg.Counter(...).With(...)) is
// the only construction path, and a nil Registry resolves working no-ops,
// so an uninstrumented process needs no other way in.
//
// Metrics bundles themselves are never nil: each package builds its bundle
// through its own NewMetrics-style constructor (from a nil Registry when
// uninstrumented), so no rule polices nil guards around them.
var Nilsafemetric = &Analyzer{
	Name: "nilsafemetric",
	Doc: "telemetry instruments must be Registry-resolved, never built by composite " +
		"literal or new() outside package telemetry",
	Run: runNilsafemetric,
}

const telemetryPkgPath = "repro/internal/telemetry"

// instrumentTypes are the telemetry value types a Registry resolves.
var instrumentTypes = map[string]bool{
	"Counter": true, "Gauge": true, "Histogram": true,
	"CounterVec": true, "GaugeVec": true, "HistogramVec": true,
}

func runNilsafemetric(pass *Pass) error {
	if pass.Pkg.Path() == telemetryPkgPath {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(node ast.Node) bool {
			switch node := node.(type) {
			case *ast.CompositeLit:
				reportConstruction(pass, node, pass.typeOf(node))
			case *ast.CallExpr:
				if id, ok := node.Fun.(*ast.Ident); ok && id.Name == "new" && len(node.Args) == 1 {
					if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
						reportConstruction(pass, node, pass.typeOf(node.Args[0]))
					}
				}
			}
			return true
		})
	}
	return nil
}

// reportConstruction reports node when t (possibly behind one pointer) is
// one of the telemetry instrument value types.
func reportConstruction(pass *Pass, node ast.Node, t types.Type) {
	pkg, name, ok := namedIn(t)
	if !ok || pkg != telemetryPkgPath || !instrumentTypes[name] {
		return
	}
	method, _ := strings.CutSuffix(name, "Vec")
	pass.Reportf(node.Pos(),
		"telemetry.%s constructed outside a Registry: resolve it via reg.%s(...).With(...) so it is wired to exposition",
		name, method)
}
