package lintout

import (
	"bytes"
	"encoding/json"
	"testing"
)

func sampleFindings() []Finding {
	return []Finding{
		{Analyzer: "goleak", File: "internal/telemetry/ops.go", Line: 97, Col: 2, Message: "goroutine has no shutdown path"},
		{Analyzer: "errdrop", File: "internal/store/store.go", Line: 10, Col: 3, Message: "error from (os.File).Sync explicitly discarded"},
		{Analyzer: "errdrop", File: "internal/store/store.go", Line: 40, Col: 3, Message: "error from (os.File).Sync explicitly discarded"},
	}
}

func TestSARIFShape(t *testing.T) {
	var buf bytes.Buffer
	rules := []Rule{{ID: "goleak", Doc: "goroutine lifecycle"}, {ID: "errdrop", Doc: "dropped IO errors"}}
	if err := WriteSARIF(&buf, rules, sampleFindings()); err != nil {
		t.Fatal(err)
	}
	// Decode generically and assert the SARIF 2.1.0 schema fields a
	// consumer (GitHub code scanning) actually keys on.
	var log map[string]any
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("SARIF does not parse: %v", err)
	}
	if log["version"] != "2.1.0" {
		t.Errorf("version = %v, want 2.1.0", log["version"])
	}
	if log["$schema"] != SARIFSchemaURI {
		t.Errorf("$schema = %v", log["$schema"])
	}
	runs, ok := log["runs"].([]any)
	if !ok || len(runs) != 1 {
		t.Fatalf("want exactly one run, got %v", log["runs"])
	}
	run := runs[0].(map[string]any)
	driver := run["tool"].(map[string]any)["driver"].(map[string]any)
	if driver["name"] != "wiscape-lint" {
		t.Errorf("driver name = %v", driver["name"])
	}
	if rules, ok := driver["rules"].([]any); !ok || len(rules) != 2 {
		t.Errorf("want 2 rules, got %v", driver["rules"])
	}
	results := run["results"].([]any)
	if len(results) != 3 {
		t.Fatalf("want 3 results, got %d", len(results))
	}
	r0 := results[0].(map[string]any)
	if r0["ruleId"] != "goleak" {
		t.Errorf("ruleId = %v", r0["ruleId"])
	}
	if r0["message"].(map[string]any)["text"] == "" {
		t.Error("empty message text")
	}
	loc := r0["locations"].([]any)[0].(map[string]any)["physicalLocation"].(map[string]any)
	art := loc["artifactLocation"].(map[string]any)
	if art["uri"] != "internal/telemetry/ops.go" {
		t.Errorf("uri = %v", art["uri"])
	}
	if reg := loc["region"].(map[string]any); reg["startLine"].(float64) != 97 {
		t.Errorf("startLine = %v", reg["startLine"])
	}
}
