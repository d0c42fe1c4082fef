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
}

func TestLockFactsAcquiresAndCycles(t *testing.T) {
	_, facts, pkgs := loadFixtureFacts(t, "lockorder", "lockorder/pair")
	p := pkgs["lockorder"]

	// Direct acquisition, keyed by struct-field identity.
	mark := facts.Of(method(t, p, "gateway", "markDirty"))
	if mark == nil {
		t.Fatal("markDirty: no facts")
	}
	if acq, ok := mark.Acquires["(lockorder.gateway).mu"]; !ok || acq.Via != "" {
		t.Fatalf("markDirty: want direct acquire of (lockorder.gateway).mu, got %+v", mark.Acquires)
	}

	// Transitive acquisition with the call chain named.
	evict := facts.Of(method(t, p, "registry", "evict"))
	if evict == nil {
		t.Fatal("evict: no facts")
	}
	if _, ok := evict.Acquires["(lockorder.registry).mu"]; !ok {
		t.Fatalf("evict: want direct acquire of its own mu, got %+v", evict.Acquires)
	}
	if acq, ok := evict.Acquires["(lockorder.gateway).mu"]; !ok || !strings.Contains(acq.Via, "markDirty") {
		t.Fatalf("evict: want transitive acquire via markDirty, got %+v", evict.Acquires)
	}

	// Cross-package: publish acquires (pair.Table).Mu through Bump.
	publish := facts.Of(method(t, p, "store", "publish"))
	if publish == nil {
		t.Fatal("publish: no facts")
	}
	if acq, ok := publish.Acquires["(pair.Table).Mu"]; !ok || !strings.Contains(acq.Via, "Bump") {
		t.Fatalf("publish: want cross-package acquire via Bump, got %+v", publish.Acquires)
	}

	// Three cycles in the fixture graph: gateway/registry, store/pair,
	// and the suppressed alpha/beta pair (suppression is the analyzer's
	// job; the facts still see the cycle).
	cycles := facts.Findings("lockorder")
	if len(cycles) != 3 {
		for _, c := range cycles {
			t.Logf("cycle: %s", c.Message)
		}
		t.Fatalf("want 3 lock cycles, got %d", len(cycles))
	}
	var sawCross bool
	for _, c := range cycles {
		if !c.Pos.IsValid() {
			t.Errorf("cycle without a position: %s", c.Message)
		}
		if strings.Contains(c.Message, "(pair.Table).Mu") &&
			strings.Contains(c.Message, "via call to (Table).Bump") {
			sawCross = true
		}
	}
	if !sawCross {
		t.Error("no cycle names the cross-package edge via (Table).Bump")
	}

	// The consistent-order pair contributes edges but no cycle.
	for _, c := range cycles {
		if strings.Contains(c.Message, "(lockorder.outer).mu") {
			t.Errorf("outer/inner is consistently ordered, must not cycle: %s", c.Message)
		}
	}
}

func TestTaintFactsFindings(t *testing.T) {
	_, facts, _ := loadFixtureFacts(t, "taintalloc", "taintalloc/codec")

	taint := facts.Findings("taintalloc")
	// One finding per positive in the fixture, including the suppressed
	// one (suppression is applied at report time, not fact time).
	const wantFindings = 7
	if len(taint) != wantFindings {
		for _, tf := range taint {
			t.Logf("taint: %s", tf.Message)
		}
		t.Fatalf("want %d taint findings, got %d", wantFindings, len(taint))
	}
	var sawRet, sawArg bool
	for _, tf := range taint {
		if !tf.Pos.IsValid() {
			t.Errorf("taint finding without a position: %s", tf.Message)
		}
		if strings.Contains(tf.Message, "value (codec.FrameLen → binary.Uint64) with") {
			sawRet = true
		}
		if strings.Contains(tf.Message, "argument from taintalloc.caller") {
			sawArg = true
		}
	}
	if !sawRet {
		t.Error("no finding derives through codec.FrameLen's return value")
	}
	if !sawArg {
		t.Error("no finding derives through allocFor's parameter")
	}
}
