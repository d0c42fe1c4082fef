package analysis_test

import (
	"strings"
	"testing"

	"repro/internal/analysis"
)

// The domain-level tests exercise the lockguard findings below the
// analyzer layer: unlike the analysistest fixtures, nothing here is
// filtered by //lint:ignore, so the suppressed sites must still be
// present as raw findings.

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
}

func TestFieldFactsNilSafe(t *testing.T) {
	var facts *analysis.Facts
	if facts.Findings("lockguard") != nil || facts.Of(nil) != nil {
		t.Fatal("nil Facts must know nothing")
	}
}
