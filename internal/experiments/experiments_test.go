package experiments

import (
	"strings"
	"sync"
	"testing"
)

// tinyOpts keeps campaign durations at their floors so the whole suite
// smoke-tests in tens of seconds.
var tinyOpts = Options{Seed: 424242, Scale: 0.01}

// firstRun is the one run of All and Extensions that the report-shape tests
// check and TestReportsReproduceFromSeed holds a second run against, so the
// package's tests build the whole suite twice, not once per test.
var firstRun = sync.OnceValues(func() (paper, ext []Report) {
	return All(tinyOpts), Extensions(tinyOpts)
})

// checkReport asserts the structural invariants every experiment must hold:
// an id, a title, at least one paper-vs-measured row, and no empty measured
// cells.
func checkReport(t *testing.T, r Report) {
	t.Helper()
	if r.ID == "" || r.Title == "" {
		t.Fatalf("report missing id/title: %+v", r)
	}
	if len(r.Rows) == 0 {
		t.Fatalf("%s: no comparison rows", r.ID)
	}
	for _, row := range r.Rows {
		if row.Label == "" {
			t.Fatalf("%s: row with empty label", r.ID)
		}
		if strings.TrimSpace(row.Measured) == "" {
			t.Fatalf("%s: row %q has no measured value", r.ID, row.Label)
		}
	}
	if s := r.String(); !strings.Contains(s, r.ID) || !strings.Contains(s, "paper:") {
		t.Fatalf("%s: rendering broken:\n%s", r.ID, s)
	}
}

func TestAllExperimentsProduceReports(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite")
	}
	reports, _ := firstRun()
	if len(reports) != 18 {
		t.Fatalf("expected 18 paper experiments, got %d", len(reports))
	}
	seen := map[string]bool{}
	for _, r := range reports {
		checkReport(t, r)
		if seen[r.ID] {
			t.Fatalf("duplicate experiment id %s", r.ID)
		}
		seen[r.ID] = true
	}
	for _, want := range []string{
		"fig01", "fig02", "fig04", "fig05", "fig06", "fig07", "fig08", "fig09",
		"fig10", "fig11", "fig12", "fig13", "fig14",
		"table3", "table4", "table5", "table6", "bwtools",
	} {
		if !seen[want] {
			t.Fatalf("missing experiment %s", want)
		}
	}
}

func TestExtensionsProduceReports(t *testing.T) {
	if testing.Short() {
		t.Skip("extension suite")
	}
	_, reports := firstRun()
	if len(reports) != 6 {
		t.Fatalf("expected 6 extension reports, got %d", len(reports))
	}
	for _, r := range reports {
		checkReport(t, r)
	}
}

// TestReportsReproduceFromSeed holds the estimator contract's determinism
// on every report the suite delivers: a second run of all 24 from the same
// options renders byte-identical to the first. The dataset memo is cleared
// between the runs, so a campaign build that draws from an unseeded random
// stream shows as a differing report rather than hiding behind the first
// run's cached dataset. A wall-clock read can move a report by less than it
// prints in the seconds between the runs; nodeterm flags those.
func TestReportsReproduceFromSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism check")
	}
	if raceEnabled {
		t.Skip("second suite run")
	}
	paper, ext := firstRun()
	first := append(append([]Report(nil), paper...), ext...)
	dsMu.Lock()
	clear(dsCache)
	dsMu.Unlock()
	second := append(All(tinyOpts), Extensions(tinyOpts)...)
	if len(second) != len(first) {
		t.Fatalf("second run gave %d reports, first %d", len(second), len(first))
	}
	for i := range first {
		if a, b := first[i].String(), second[i].String(); a != b {
			t.Errorf("%s: same seed, different report:\n--- first\n%s--- second\n%s", first[i].ID, a, b)
		}
	}
}

func TestOptionsFill(t *testing.T) {
	var o Options
	f := o.fill()
	if f.Seed == 0 || f.Scale != 1 {
		t.Fatalf("fill defaults wrong: %+v", f)
	}
	// Explicit values survive.
	o2 := Options{Seed: 7, Scale: 0.5}.fill()
	if o2.Seed != 7 || o2.Scale != 0.5 {
		t.Fatalf("fill clobbered values: %+v", o2)
	}
}

func TestScaleDurFloors(t *testing.T) {
	o := Options{Seed: 1, Scale: 0.001}.fill()
	if got := o.scaleDur(1000, 500); got != 500 {
		t.Fatalf("floor not applied: %v", got)
	}
	o = Options{Seed: 1, Scale: 2}.fill()
	if got := o.scaleDur(1000, 500); got != 2000 {
		t.Fatalf("scaling wrong: %v", got)
	}
}

func TestStadiumShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("shape check")
	}
	// The one shape claim cheap enough to assert in tests: the game-day
	// surge factor is ~3.7x.
	r := Fig10Stadium(tinyOpts)
	var surge string
	for _, row := range r.Rows {
		if strings.Contains(row.Label, "NetB") {
			surge = row.Measured
		}
	}
	if !strings.Contains(surge, "3.7x") && !strings.Contains(surge, "3.6x") && !strings.Contains(surge, "3.8x") {
		t.Fatalf("stadium surge factor drifted: %q", surge)
	}
}

func TestRepresentativeSitesQualify(t *testing.T) {
	if testing.Short() {
		t.Skip("site scan")
	}
	sites := representativeSites(tinyOpts, 0, 2) // RegionWI
	if len(sites) != 2 {
		t.Fatalf("got %d sites", len(sites))
	}
	if sites[0] == sites[1] {
		t.Fatal("sites must be distinct")
	}
}
