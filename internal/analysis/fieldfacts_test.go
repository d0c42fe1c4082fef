package analysis_test

import (
	"strings"
	"testing"

	"repro/internal/analysis"
)

// The domain-level tests exercise the lockguard and atomicmix findings
// below the analyzer layer: unlike the analysistest fixtures, nothing
// here is filtered by //lint:ignore, so the suppressed sites must still
// be present as raw findings.

func TestFieldFactsGuardDomain(t *testing.T) {
	_, facts, _ := loadFixtureFacts(t, "lockguard", "lockguard/box")
	guards := facts.Findings("lockguard")
	wantFuncs := []string{
		"(counter).racyBump",    // seeded race: bare write against three mu-guarded sites
		"(table).peek",          // caller-inherited guard on bump, peek is the minority
		"(annotated).racyTouch", // declared //wiscape:guardedby, no supermajority needed
		"(annotated).audited",   // suppressed at the analyzer layer, visible here
		"lockguard.racyLen",     // cross-package: guard association lives in box
	}
	if len(guards) != len(wantFuncs) {
		for _, g := range guards {
			t.Logf("finding: %s", g.Message)
		}
		t.Fatalf("lockguard findings = %d findings, want %d", len(guards), len(wantFuncs))
	}
	for _, fn := range wantFuncs {
		found := false
		for _, g := range guards {
			if strings.Contains(g.Message, fn) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no guard finding mentions %s", fn)
		}
	}
	if n := len(facts.Findings("atomicmix")); n != 0 {
		t.Errorf("atomicmix findings over the lockguard fixture = %d findings, want 0", n)
	}
}

func TestFieldFactsMixDomain(t *testing.T) {
	_, facts, _ := loadFixtureFacts(t, "atomicmix", "atomicmix/ctr")
	mixes := facts.Findings("atomicmix")
	wantFuncs := []string{
		"(stats).report",        // plain read against hit's atomic increments
		"atomicmix.racyReset",   // cross-package plain write
		"atomicmix.auditedPeek", // suppressed at the analyzer layer, visible here
	}
	if len(mixes) != len(wantFuncs) {
		for _, m := range mixes {
			t.Logf("finding: %s", m.Message)
		}
		t.Fatalf("atomicmix findings = %d findings, want %d", len(mixes), len(wantFuncs))
	}
	for _, fn := range wantFuncs {
		found := false
		for _, m := range mixes {
			if strings.Contains(m.Message, fn) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no mix finding mentions %s", fn)
		}
	}
	// The typed-atomic pointer handoff (&g.v to a helper), the all-atomic
	// counter, the constructor store and the post-Wait read must all stay
	// out of the verdicts.
	for _, m := range mixes {
		for _, silent := range []string{").v", ").misses", ").done", "newStats"} {
			if strings.Contains(m.Message, silent) {
				t.Errorf("escaped shape leaked into findings: %s", m.Message)
			}
		}
	}
	if n := len(facts.Findings("lockguard")); n != 0 {
		t.Errorf("lockguard findings over the atomicmix fixture = %d findings, want 0", n)
	}
}

func TestFieldFactsNilSafe(t *testing.T) {
	var facts *analysis.Facts
	if facts.Findings("lockguard") != nil || facts.Findings("atomicmix") != nil {
		t.Fatal("nil Facts must know nothing")
	}
}
