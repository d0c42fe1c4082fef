package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// writeTree materializes a fake module: path -> contents.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for path, contents := range files {
		full := filepath.Join(dir, filepath.FromSlash(path))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(contents), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestExpandWalksModuleSkippingNonPackages(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod":                 "module example\n",
		"a/a.go":                 "package a\n",
		"a/b/b.go":               "package b\n",
		"a/testdata/t.go":        "package t\n",
		"vendor/v/v.go":          "package v\n",
		".hidden/h.go":           "package h\n",
		"_skip/s.go":             "package s\n",
		"empty/readme.txt":       "no go files here\n",
		"onlytests/x_test.go":    "package onlytests\n",
		"deep/nested/pkg/pkg.go": "package pkg\n",
	})
	got, err := expand([]string{"./..."}, dir, "example")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"example/a", "example/a/b", "example/deep/nested/pkg"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("expand = %v, want %v", got, want)
	}
}

func TestExpandEmptyModuleMatchesNothing(t *testing.T) {
	dir := writeTree(t, map[string]string{"go.mod": "module example\n"})
	got, err := expand([]string{"./..."}, dir, "example")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("expand of empty module = %v, want none", got)
	}
}

func TestExpandLiteralPathsDeduplicated(t *testing.T) {
	got, err := expand([]string{"example/a", "example/a/", "example/b"}, t.TempDir(), "example")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"example/a", "example/b"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("expand = %v, want %v", got, want)
	}
}

// TestRunNoPackagesExitsTwo covers the empty-match contract end to end:
// a pattern that expands to nothing is a usage error (exit 2), not a
// silently-clean run (exit 0).
func TestRunNoPackagesExitsTwo(t *testing.T) {
	dir := writeTree(t, map[string]string{"go.mod": "module example\n"})
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	var stdout, stderr bytes.Buffer
	if code := run([]string{"./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit = %d, want 2; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "matched no packages") {
		t.Fatalf("stderr should name the failure, got: %s", stderr.String())
	}
}

// TestRunParseErrorsExitTwo: a syntax error is reported as a positioned
// diagnostic and forces exit 2 even when no analyzer finds anything.
func TestRunParseErrorsExitTwo(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod":      "module example\n\ngo 1.22\n",
		"broken/b.go": "package broken\n\nfunc f() {\n", // unclosed body
	})
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	var stdout, stderr bytes.Buffer
	if code := run([]string{"./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit = %d, want 2; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "broken/b.go:") {
		t.Fatalf("parse error should be positioned file:line, got: %s", stderr.String())
	}
}

// TestRunUnknownAnalyzerExitsTwo: a typo in -only, or the name of a retired
// analyzer, must fail loudly with the valid names, not silently run nothing.
func TestRunUnknownAnalyzerExitsTwo(t *testing.T) {
	var valid []string
	for _, a := range analysis.All() {
		valid = append(valid, a.Name)
	}
	for _, name := range []string{"lockgaurd", "taintalloc", "atomicmix", "lockguard", "nilsafemetric", "lockorder"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-only", name}, &stdout, &stderr); code != 2 {
			t.Fatalf("%s: exit = %d, want 2; stderr: %s", name, code, stderr.String())
		}
		want := fmt.Sprintf("wiscape-lint: unknown analyzer %q; valid analyzers: %s\n", name, strings.Join(valid, ", "))
		if got := stderr.String(); got != want {
			t.Fatalf("%s: stderr %q, want %q", name, got, want)
		}
	}
}

// TestRunStatsJSONMergesByLabel drives -stats-json end to end on a tiny
// module: a fresh file gains a snapshot, a second label appends, and
// re-recording an existing label replaces it instead of growing the file.
func TestRunStatsJSONMergesByLabel(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod": "module example\n\ngo 1.22\n",
		"a/a.go": "package a\n\nfunc F() int { return 1 }\n",
	})
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	statsPath := filepath.Join(dir, "bench.json")
	read := func() statsFile {
		t.Helper()
		data, err := os.ReadFile(statsPath)
		if err != nil {
			t.Fatal(err)
		}
		var sf statsFile
		if err := json.Unmarshal(data, &sf); err != nil {
			t.Fatalf("stats file is not valid JSON: %v\n%s", err, data)
		}
		return sf
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-stats-json", statsPath, "-stats-label", "before", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0; stderr: %s", code, stderr.String())
	}
	sf := read()
	if len(sf.Snapshots) != 1 || sf.Snapshots[0].Label != "before" {
		t.Fatalf("snapshots after first run = %+v", sf.Snapshots)
	}
	if want := len(analysis.All()); sf.Snapshots[0].Analyzers != want {
		t.Fatalf("recorded %d analyzers, want %d", sf.Snapshots[0].Analyzers, want)
	}
	if len(sf.Snapshots[0].PerAnalyzerMS) != len(analysis.All()) {
		t.Fatalf("per-analyzer map has %d entries, want %d", len(sf.Snapshots[0].PerAnalyzerMS), len(analysis.All()))
	}

	if code := run([]string{"-stats-json", statsPath, "-stats-label", "after", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0; stderr: %s", code, stderr.String())
	}
	if sf = read(); len(sf.Snapshots) != 2 {
		t.Fatalf("new label should append, got %+v", sf.Snapshots)
	}

	if code := run([]string{"-only", "nodeterm", "-stats-json", statsPath, "-stats-label", "after", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0; stderr: %s", code, stderr.String())
	}
	sf = read()
	if len(sf.Snapshots) != 2 {
		t.Fatalf("same label should replace, got %+v", sf.Snapshots)
	}
	for _, s := range sf.Snapshots {
		if s.Label == "after" && s.Analyzers != 1 {
			t.Fatalf("replaced snapshot not updated: %+v", s)
		}
	}
}

// TestRunDirectoryPatterns: "./dir" is the module's package in that
// directory — here one whose path GOROOT also has (internal/trace), which the
// loader used to pick instead, unchecked, for an analyzer to dereference —
// and reports what its import path reports; "./dir/..." adds what is below
// it; a pattern naming no package is refused with one line, whatever else
// was asked for.
func TestRunDirectoryPatterns(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod":                  "module example\n\ngo 1.22\n",
		"internal/trace/t.go":     "package trace\n\nimport \"os\"\n\nfunc F(f *os.File) { f.Close() }\n",
		"internal/trace/sub/s.go": "package sub\n\nimport \"os\"\n\nfunc G(f *os.File) { f.Sync() }\n",
	})
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	lint := func(args ...string) (int, string, string) {
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		return code, stdout.String(), stderr.String()
	}
	wantCode, want, _ := lint("example/internal/trace")
	if wantCode != 1 || !strings.Contains(want, "internal/trace/t.go:5") || strings.Contains(want, "sub/s.go") {
		t.Fatalf("by import path: exit %d, findings:\n%s", wantCode, want)
	}
	for _, pat := range []string{"./internal/trace", "./internal/trace/"} {
		if code, got, stderr := lint(pat); code != wantCode || got != want {
			t.Errorf("%s: exit %d, want %d; stderr %q; findings:\n%s\nwant:\n%s", pat, code, wantCode, stderr, got, want)
		}
	}
	if code, got, _ := lint("./internal/trace/..."); code != 1 || !strings.Contains(got, "t.go:5") || !strings.Contains(got, "sub/s.go:5") {
		t.Errorf("./internal/trace/...: exit %d, findings:\n%s", code, got)
	}
	for _, pats := range [][]string{{"./no/such/dir"}, {"./internal/trace", "./no/such/dir"}, {"./no/such/..."}, {"./../elsewhere"}, {"os"}} {
		code, got, stderr := lint(pats...)
		if code != 2 || got != "" || strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, pats[len(pats)-1]) {
			t.Errorf("%v: exit %d, want 2 and one line naming the pattern; stdout %q, stderr %q", pats, code, got, stderr)
		}
	}
}

// TestRunEndToEnd drives both passes over a two-package module carrying a
// lockio finding through a call into the other package, one in place, and
// both suppression outcomes, and runs it twice: the same findings, byte
// for byte.
func TestRunEndToEnd(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod": "module example\n\ngo 1.22\n",
		"b/b.go": `package b

import "net"

func Ping(nc net.Conn) {
	_, _ = nc.Write([]byte{0})
}
`,
		"a/a.go": `package a

import (
	"net"
	"os"
	"sync"

	"example/b"
)

type Server struct {
	mu sync.Mutex
	rw sync.RWMutex
}

func (s *Server) Publish(nc net.Conn) {
	s.mu.Lock()
	b.Ping(nc)
	s.mu.Unlock()
}

func (s *Server) CloseBoth(nc net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rw.Lock()
	defer s.rw.Unlock()
	_ = nc.Close()
}

func Drop(f, g *os.File) {
	//lint:ignore errdrop fixture: the audited escape hatch
	f.Close()
	//lint:ignore errdrop
	g.Close()
}
`,
	})
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	lint := func(args ...string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 1 {
			t.Fatalf("%v: exit %d, want 1; stderr: %s", args, code, stderr.String())
		}
		return stdout.String()
	}
	text := lint("./...")
	for _, want := range []string{
		"a/a.go:18:2: s.mu held across call to b.Ping (may block: (net.Conn).Write): release the lock before calling into blocking code (lockio)",
		"a/a.go:27:6: s.rw held across (net.Conn).Close: release the lock before blocking network I/O (lockio)",
		"a/a.go:34:2: error from (os.File).Close silently dropped",
	} {
		if strings.Count(text, want) != 1 {
			t.Errorf("want exactly one finding %q, got:\n%s", want, text)
		}
	}
	if n := strings.Count(text, "\n"); n != 3 {
		t.Errorf("want 3 findings, got %d:\n%s", n, text)
	}
	if text2 := lint("./..."); text2 != text {
		t.Errorf("second run differs:\n%s\nvs\n%s", text2, text)
	}
}
