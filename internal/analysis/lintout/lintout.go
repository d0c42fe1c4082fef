// Package lintout is wiscape-lint's output layer: findings as a stable
// struct, printed one per line for people or as a SARIF 2.1.0 log for
// code scanning.
package lintout

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"
)

// Finding is one diagnostic from one analyzer, positioned
// module-relative with slash-separated paths (stable across machines).
type Finding struct {
	Analyzer string
	File     string
	Line     int
	Col      int
	Message  string
}

// Sort orders findings by file, line, column, analyzer — the order the
// text emitter prints and the SARIF emitter preserves.
func Sort(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// WriteText prints the human-facing one-line-per-finding form.
func WriteText(w io.Writer, fs []Finding) {
	for _, f := range fs {
		fmt.Fprintf(w, "%s:%d:%d: %s (%s)\n", f.File, f.Line, f.Col, f.Message, f.Analyzer)
	}
}

// Rule describes one analyzer for the SARIF tool.driver.rules table.
type Rule struct {
	ID  string
	Doc string
}

// sarif* types model the slice of SARIF 2.1.0 the emitter produces.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId,omitempty"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// SARIFSchemaURI and SARIFVersion pin the emitted dialect.
const (
	SARIFSchemaURI = "https://json.schemastore.org/sarif-2.1.0.json"
	SARIFVersion   = "2.1.0"
)

// WriteSARIF emits the findings as a single-run SARIF 2.1.0 log suitable
// for GitHub code-scanning upload (PR annotations come for free).
func WriteSARIF(w io.Writer, rules []Rule, fs []Finding) error {
	srules := make([]sarifRule, 0, len(rules))
	for _, r := range rules {
		srules = append(srules, sarifRule{ID: r.ID, ShortDescription: sarifMessage{Text: r.Doc}})
	}
	results := make([]sarifResult, 0, len(fs))
	for _, f := range fs {
		results = append(results, sarifResult{
			RuleID:  f.Analyzer,
			Level:   "error",
			Message: sarifMessage{Text: f.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{
						URI:       filepath.ToSlash(f.File),
						URIBaseID: "%SRCROOT%",
					},
					Region: sarifRegion{StartLine: f.Line, StartColumn: f.Col},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  SARIFSchemaURI,
		Version: SARIFVersion,
		Runs: []sarifRun{{
			Tool: sarifTool{Driver: sarifDriver{
				Name:           "wiscape-lint",
				InformationURI: "https://example.invalid/wiscape-lint",
				Rules:          srules,
			}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}
