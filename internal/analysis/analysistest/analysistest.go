// Package analysistest runs an analyzer over fixture packages under
// testdata/src and checks its diagnostics against // want comments, the
// same contract as golang.org/x/tools/go/analysis/analysistest:
//
//	_ = time.Now() // want `call to time\.Now`
//
// A want comment holds one or more backquoted or double-quoted regular
// expressions; each must match exactly one diagnostic reported on that
// line, and every diagnostic must be matched by a want. Fixtures may
// import both standard-library packages and real repro/... packages (the
// loader resolves them against the enclosing module), so rules about
// types like wire.Conn or telemetry.Counter are tested against the real
// types, not mocks.
//
// Suppression comments (//lint:ignore <analyzer> <reason>) are honored
// exactly as the wiscape-lint driver honors them, so the convention
// itself is testable in fixtures.
package analysistest

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

// wantRE extracts the quoted patterns from a want comment.
var wantRE = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// Run loads each fixture package (an import path relative to
// testdata/src) and reports any mismatch between the analyzer's
// diagnostics and the fixtures' want comments as test failures.
func Run(t *testing.T, a *analysis.Analyzer, fixturePkgs ...string) {
	t.Helper()
	modDir, modPath, err := load.FindModule()
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	src, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	ld := load.New()
	ld.ModulePath = modPath
	ld.ModuleDir = modDir
	ld.Overrides = overrides(src)

	// Pass 1: load every fixture (and, transitively, every module package
	// the fixtures import), then compute interprocedural facts over the
	// whole load — the same two-pass shape as the wiscape-lint driver.
	loaded := make(map[string]*load.Package, len(fixturePkgs))
	for _, pkgPath := range fixturePkgs {
		p, err := ld.Load(pkgPath)
		if err != nil {
			t.Errorf("%s: loading fixture %s: %v", a.Name, pkgPath, err)
			continue
		}
		for _, perr := range p.ParseErrors {
			t.Errorf("%s: fixture %s: parse error: %v", a.Name, pkgPath, perr)
		}
		for _, terr := range p.TypeErrors {
			// Fixtures must type-check: a broken fixture silently weakens
			// the suite (analyzers degrade on missing type info).
			t.Errorf("%s: fixture %s: type error: %v", a.Name, pkgPath, terr)
		}
		loaded[pkgPath] = p
	}
	facts := analysis.ComputeFacts(ld.Packages())

	// Pass 2: run the analyzer per fixture with the shared facts.
	for _, pkgPath := range fixturePkgs {
		p := loaded[pkgPath]
		if p == nil {
			continue
		}
		var diags []analysis.Diagnostic
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      ld.Fset,
			Files:     p.Files,
			Pkg:       p.Pkg,
			TypesInfo: p.Info,
			Facts:     facts,
			Report: func(d analysis.Diagnostic) {
				if !analysis.Suppressed(ld.Fset, p.Files, a.Name, d.Pos) {
					diags = append(diags, d)
				}
			},
		}
		if err := a.Run(pass); err != nil {
			t.Errorf("%s: running on %s: %v", a.Name, pkgPath, err)
			continue
		}
		check(t, a.Name, ld.Fset, p, diags)
	}
}

// want is one expected-diagnostic pattern at a file line.
type want struct {
	re      *regexp.Regexp
	matched bool
}

func check(t *testing.T, name string, fset *token.FileSet, p *load.Package, diags []analysis.Diagnostic) {
	t.Helper()
	wants := make(map[string][]*want) // "file:line" -> patterns
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				idx := strings.Index(text, "// want ")
				if idx < 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, m := range wantRE.FindAllStringSubmatch(text[idx+len("// want "):], -1) {
					pat := m[1]
					if pat == "" {
						pat = m[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s: %s: bad want pattern %q: %v", name, key, pat, err)
						continue
					}
					wants[key] = append(wants[key], &want{re: re})
				}
			}
		}
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: %s: unexpected diagnostic: %s", name, key, d.Message)
		}
	}
	var keys []string
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, w := range wants[k] {
			if !w.matched {
				t.Errorf("%s: %s: expected diagnostic matching %q, got none", name, k, w.re)
			}
		}
	}
}

// overrides maps every fixture directory under src onto its import path
// relative to src ("nodeterm", "nodeterm/clock", ...).
func overrides(src string) map[string]string {
	m := make(map[string]string)
	_ = filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return nil
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return nil
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				rel, err := filepath.Rel(src, path)
				if err == nil && rel != "." {
					m[filepath.ToSlash(rel)] = path
				}
				break
			}
		}
		return nil
	})
	return m
}
