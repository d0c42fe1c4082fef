package analysis_test

import (
	"go/types"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

// loadFixtureFacts loads the named fixture packages (plus everything
// they import) and computes facts over the whole load, exactly as the
// drivers do.
func loadFixtureFacts(t *testing.T, pkgPaths ...string) (*load.Loader, *analysis.Facts, map[string]*load.Package) {
	t.Helper()
	modDir, modPath, err := load.FindModule()
	if err != nil {
		t.Fatal(err)
	}
	src, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	ld := load.New()
	ld.ModulePath = modPath
	ld.ModuleDir = modDir
	ld.Overrides = map[string]string{}
	for _, p := range pkgPaths {
		ld.Overrides[p] = filepath.Join(src, filepath.FromSlash(p))
	}
	pkgs := make(map[string]*load.Package)
	for _, p := range pkgPaths {
		lp, err := ld.Load(p)
		if err != nil {
			t.Fatalf("loading %s: %v", p, err)
		}
		for _, e := range append(lp.ParseErrors, lp.TypeErrors...) {
			t.Fatalf("fixture %s does not check cleanly: %v", p, e)
		}
		pkgs[p] = lp
	}
	return ld, analysis.ComputeFacts(ld.Packages()), pkgs
}

// method fetches a named type's method object by name.
func method(t *testing.T, pkg *load.Package, typeName, methodName string) types.Object {
	t.Helper()
	obj := pkg.Pkg.Scope().Lookup(typeName)
	if obj == nil {
		t.Fatalf("type %s not found in %s", typeName, pkg.Path)
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		t.Fatalf("%s is not a named type", typeName)
	}
	for i := 0; i < named.NumMethods(); i++ {
		if m := named.Method(i); m.Name() == methodName {
			return m
		}
	}
	t.Fatalf("method %s.%s not found", typeName, methodName)
	return nil
}

func pkgFunc(t *testing.T, pkg *load.Package, name string) types.Object {
	t.Helper()
	obj := pkg.Pkg.Scope().Lookup(name)
	if obj == nil {
		t.Fatalf("func %s not found in %s", name, pkg.Path)
	}
	return obj
}

func TestFactsGoroutineLifecycle(t *testing.T) {
	_, facts, pkgs := loadFixtureFacts(t, "goleak")
	p := pkgs["goleak"]

	pump := facts.Of(method(t, p, "svc", "pump"))
	if pump == nil || !pump.MayBlock {
		t.Fatalf("pump: want MayBlock (channel send), got %+v", pump)
	}
	if pump.ShutdownSignal || pump.WGDone {
		t.Errorf("pump: want no lifecycle evidence, got %+v", pump)
	}

	run := facts.Of(method(t, p, "svc", "run"))
	if run == nil || !run.ShutdownSignal {
		t.Fatalf("run: want ShutdownSignal from select on stop, got %+v", run)
	}

	// The select evidence must propagate one call up.
	outer := facts.Of(method(t, p, "svc", "outerRun"))
	if outer == nil || !outer.ShutdownSignal {
		t.Fatalf("outerRun: want propagated ShutdownSignal, got %+v", outer)
	}

	// And the leak must propagate too: outerLeak calls pump, gaining
	// MayBlock but no shutdown evidence.
	outerLeak := facts.Of(method(t, p, "svc", "outerLeak"))
	if outerLeak == nil || !outerLeak.MayBlock || outerLeak.ShutdownSignal {
		t.Fatalf("outerLeak: want MayBlock without ShutdownSignal, got %+v", outerLeak)
	}
}

func TestFactsReturnsIOError(t *testing.T) {
	_, facts, pkgs := loadFixtureFacts(t, "errdrop")
	p := pkgs["errdrop"]

	flushAll := facts.Of(pkgFunc(t, p, "flushAll"))
	if flushAll == nil || !flushAll.ReturnsIOError || flushAll.IOErrorKind != "file" {
		t.Fatalf("flushAll: want file-kind ReturnsIOError, got %+v", flushAll)
	}

	// Two hops: persist -> syncIt -> (os.File).Sync.
	persist := facts.Of(pkgFunc(t, p, "persist"))
	if persist == nil || !persist.ReturnsIOError || persist.IOErrorKind != "file" {
		t.Fatalf("persist: want propagated file-kind ReturnsIOError, got %+v", persist)
	}
	if !strings.Contains(persist.IOErrorVia, "syncIt") {
		t.Errorf("persist: via should name the chain, got %q", persist.IOErrorVia)
	}

	pure := facts.Of(pkgFunc(t, p, "pureWrapper"))
	if pure == nil || pure.ReturnsIOError {
		t.Fatalf("pureWrapper: want no IO-error fact, got %+v", pure)
	}

	// A function that does I/O but returns nothing carries no obligation.
	bare := facts.Of(pkgFunc(t, p, "bareFileClose"))
	if bare == nil || bare.ReturnsIOError {
		t.Fatalf("bareFileClose: returns no error, want no IO-error fact, got %+v", bare)
	}
}

func TestFactsCrossPackageMayBlock(t *testing.T) {
	_, facts, pkgs := loadFixtureFacts(t, "lockio", "lockio/remote")
	rp := pkgs["lockio/remote"]

	dial := facts.Of(pkgFunc(t, rp, "Dial"))
	if dial == nil || !dial.MayBlock || dial.BlockVia != "net.Dial" {
		t.Fatalf("remote.Dial: want MayBlock via net.Dial, got %+v", dial)
	}
	ping := facts.Of(pkgFunc(t, rp, "Ping"))
	if ping == nil || !ping.MayBlock {
		t.Fatalf("remote.Ping: want MayBlock via conn write, got %+v", ping)
	}
	dist := facts.Of(pkgFunc(t, rp, "Distance"))
	if dist == nil || dist.MayBlock {
		t.Fatalf("remote.Distance: pure function must not block, got %+v", dist)
	}

	// The caller package sees the facts across the package boundary.
	lp := pkgs["lockio"]
	notify := facts.Of(method(t, lp, "server", "notify"))
	if notify == nil || !notify.MayBlock || notify.BlockVia != "channel send" {
		t.Fatalf("(server).notify: want MayBlock via channel send, got %+v", notify)
	}
	// One call up, the chain names the callee ahead of its evidence.
	helper := facts.Of(method(t, lp, "server", "helperBad"))
	if helper == nil || !helper.MayBlock || helper.BlockVia != "(server).notify → channel send" {
		t.Fatalf("(server).helperBad: want MayBlock via (server).notify → channel send, got %+v", helper)
	}
}

// TestFactsWalkDistinctions pins where the walk's may-block evidence is
// not simply "every call and send in the body": a send in a select with a
// default case does not block, a go'd call is not a callee, and a
// deferred call is one.
func TestFactsWalkDistinctions(t *testing.T) {
	_, facts, pkgs := loadFixtureFacts(t, "lockio", "lockio/remote", "goleak", "errdrop")
	for _, c := range []struct {
		fn    types.Object
		block bool
	}{
		{method(t, pkgs["lockio"], "server", "sendBad"), true},
		{method(t, pkgs["lockio"], "server", "selectSendBad"), false},
		{method(t, pkgs["goleak"], "svc", "spawnNamedLeak"), false},
		{pkgFunc(t, pkgs["errdrop"], "deferredConnClose"), true},
	} {
		if ff := facts.Of(c.fn); ff == nil || ff.MayBlock != c.block {
			t.Errorf("%s: want MayBlock %v, got %+v", c.fn.Name(), c.block, ff)
		}
	}
}

func TestFactsNilSafe(t *testing.T) {
	var facts *analysis.Facts
	if facts.Of(nil) != nil {
		t.Fatal("nil Facts must know nothing")
	}
	pass := &analysis.Pass{Analyzer: analysis.Lockio, Report: func(d analysis.Diagnostic) {
		t.Errorf("lockio without facts reported %q", d.Message)
	}}
	if err := analysis.Lockio.Run(pass); err != nil {
		t.Fatal(err)
	}
}
