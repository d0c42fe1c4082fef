package analysis

import (
	"go/ast"
)

// Nodeterm enforces the simulator's reproducibility contract on its
// clocks: the packages that produce the paper's numbers (the simulated
// substrate, the statistics and epoch/NKLD machinery, the experiment
// harness) must read time only from an injected clock (virtual campaign
// time, or a clock function passed by the caller). Unseeded randomness
// needs no rule: it changes a report from one run to the next, which
// TestReportsReproduceFromSeed sees. A wall-clock read can move a report
// by less than it prints across the seconds between two runs, so it needs
// this one.
//
// Flagged: calls to time.Now, time.Since, time.Until, time.Sleep,
// time.Tick, time.After, time.AfterFunc, time.NewTimer and time.NewTicker.
// Referencing time.Sleep as a value (the injected-sleeper default idiom)
// is allowed: the rule targets where wall time is consumed, not where the
// injection point is wired.
//
// Scope: the packages listed in deterministicPkgs, plus any package with a
// file carrying the lone comment directive "//wiscape:deterministic"
// (which is also how new packages opt in without touching the linter).
var Nodeterm = &Analyzer{
	Name: "nodeterm",
	Doc:  "forbid wall-clock time in deterministic packages; inject clocks instead",
	Run:  runNodeterm,
}

// deterministicPkgs is the seed-stable core: every package here feeds the
// reproduced figures or the campaign machinery, directly or transitively.
var deterministicPkgs = map[string]bool{
	"repro/internal/simnet":      true,
	"repro/internal/stats":       true,
	"repro/internal/experiments": true,
	"repro/internal/trace":       true,
	"repro/internal/mobility":    true,
	"repro/internal/radio":       true,
	"repro/internal/webload":     true,
	"repro/internal/device":      true,
	"repro/internal/bandwidth":   true,
	"repro/internal/geo":         true,
	"repro/internal/core":        true,
	"repro/internal/rng":         true,
	// The agent executes campaigns in virtual time; its only wall-clock
	// dependency (the reconnect backoff sleeper) must stay injectable.
	"repro/internal/agent": true,
}

// DeterministicDirective opts a package into nodeterm from its own source.
const DeterministicDirective = "//wiscape:deterministic"

// nondetTimeFuncs are the time package entry points that consume the wall
// clock (constructors like time.Date/time.Unix are pure and stay legal).
var nondetTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"Tick": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true,
}

func runNodeterm(pass *Pass) error {
	inScope := deterministicPkgs[pass.Pkg.Path()]
	if !inScope {
		for _, f := range pass.Files {
			if hasDirective(f, DeterministicDirective) {
				inScope = true
				break
			}
		}
	}
	if !inScope {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if pkgPath, name, ok := pass.pkgFunc(call); ok && pkgPath == "time" && nondetTimeFuncs[name] {
				pass.Reportf(call.Pos(),
					"call to time.%s in deterministic package %s: inject a clock (or virtual campaign time) instead",
					name, pass.Pkg.Path())
			}
			return true
		})
	}
	return nil
}
