// wiscape-lint is the repository's invariant gate: it runs the
// internal/analysis suite (nodeterm, lockio, wirebound, goleak, errdrop,
// lockorder) over module packages and exits non-zero on any finding.
//
// Usage:
//
//	wiscape-lint [-only a,b] [-list] [-stats] [-stats-json FILE [-stats-label NAME]] [packages]
//
// Packages are import paths, ./dir (the package in that directory of the
// enclosing module), ./dir/... (every package at or below it) or ./... (the
// default: the whole module). The run is two-pass:
// every requested package is loaded and type-checked first, a facts
// table (may-block, returns-IO-error, shutdown-signal, WaitGroup
// accounting, lock-acquisition order) is computed over the whole load to
// a fixed point, and only then do the analyzers run —
// so the facts-aware analyzers see through calls into other functions
// and other packages. Both passes run sequentially and findings are
// sorted, so output stays byte-identical run to run. -stats prints the
// load/facts/analyze wall times and per-analyzer cost to stderr;
// -stats-json records the same split as a labeled snapshot in a JSON
// file (replacing any snapshot with the same -stats-label, appending
// otherwise), which is how BENCH_lint.json tracks the suite's cost
// across growth.
//
// Findings print one per line, "file:line:col: message (analyzer)". The
// only way to silence one is a "//lint:ignore <analyzer> <reason>"
// comment on the offending line or the line above; the reason is
// mandatory.
//
// Exit status: 0 clean, 1 findings, 2 usage errors, load failures, parse
// errors, or patterns matching no packages. Parse errors always force
// exit 2: a package with a hole in it cannot be trusted to lint clean.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"go/scanner"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wiscape-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list analyzers and exit")
	stats := fs.Bool("stats", false, "print load/facts/analyze wall time and per-analyzer cost to stderr")
	statsJSON := fs.String("stats-json", "", "record the timing split as a labeled snapshot in this JSON file")
	statsLabel := fs.String("stats-label", "current", "snapshot label for -stats-json (same label replaces, new label appends)")
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*only, ",") {
			a := analysis.ByName(strings.TrimSpace(name))
			if a == nil {
				valid := make([]string, 0, len(analysis.All()))
				for _, known := range analysis.All() {
					valid = append(valid, known.Name)
				}
				fmt.Fprintf(stderr, "wiscape-lint: unknown analyzer %q; valid analyzers: %s\n",
					name, strings.Join(valid, ", "))
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	modDir, modPath, err := load.FindModule()
	if err != nil {
		fmt.Fprintf(stderr, "wiscape-lint: %v\n", err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgPaths, err := expand(patterns, modDir, modPath)
	if err != nil {
		fmt.Fprintf(stderr, "wiscape-lint: %v\n", err)
		return 2
	}
	if len(pkgPaths) == 0 {
		fmt.Fprintf(stderr, "wiscape-lint: patterns %v matched no packages\n", patterns)
		return 2
	}

	// Pass 1: load and type-check every requested package, surfacing
	// parse errors as positioned diagnostics rather than silently
	// analyzing files with holes in them. Loading stays sequential: the
	// loader memoizes recursively and is not safe for concurrent use,
	// and the shared dependency packages mean most of the parse/check
	// work is done once no matter the order.
	ld := load.New()
	ld.ModulePath = modPath
	ld.ModuleDir = modDir

	exit := 0
	loadStart := time.Now()
	var targets []*load.Package
	for _, pkgPath := range pkgPaths {
		p, err := ld.Load(pkgPath)
		if err != nil {
			fmt.Fprintf(stderr, "wiscape-lint: loading %s: %v\n", pkgPath, err)
			exit = 2
			continue
		}
		if p.Info == nil {
			// The loader found it outside the module (a GOROOT package): it
			// was checked as a dependency, without the types the analyzers read.
			fmt.Fprintf(stderr, "wiscape-lint: %s is not a package of module %s\n", pkgPath, modPath)
			exit = 2
			continue
		}
		for _, perr := range p.ParseErrors {
			fmt.Fprintf(stderr, "%s\n", relErr(perr, modDir))
			exit = 2
		}
		targets = append(targets, p)
	}
	loadDur := time.Since(loadStart)

	// Pass 2: compute interprocedural facts over the whole load (the
	// requested packages plus every module-local package they pulled in),
	// then run the analyzers with the facts table attached.
	factsStart := time.Now()
	facts := analysis.ComputeFacts(ld.Packages())
	factsDur := time.Since(factsStart)

	analyzeStart := time.Now()
	var findings []finding
	analyzerDur := make([]time.Duration, len(analyzers))
	for _, p := range targets {
		for ai, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      ld.Fset,
				Files:     p.Files,
				Pkg:       p.Pkg,
				TypesInfo: p.Info,
				Facts:     facts,
				Report: func(d analysis.Diagnostic) {
					if analysis.Suppressed(ld.Fset, p.Files, a.Name, d.Pos) {
						return
					}
					pos := ld.Fset.Position(d.Pos)
					file, err := filepath.Rel(modDir, pos.Filename)
					if err != nil {
						file = pos.Filename
					}
					findings = append(findings, finding{
						Analyzer: a.Name,
						File:     filepath.ToSlash(file),
						Line:     pos.Line,
						Col:      pos.Column,
						Message:  d.Message,
					})
				},
			}
			start := time.Now()
			err := a.Run(pass)
			analyzerDur[ai] += time.Since(start)
			if err != nil {
				fmt.Fprintf(stderr, "wiscape-lint: %s on %s: %v\n", a.Name, p.Path, err)
				exit = 2
			}
		}
	}
	analyzeDur := time.Since(analyzeStart)
	sortFindings(findings)

	if *stats {
		fmt.Fprintf(stderr, "wiscape-lint: load %s, facts %s, analyze %s (%d packages)\n",
			loadDur.Round(time.Millisecond), factsDur.Round(time.Millisecond),
			analyzeDur.Round(time.Millisecond), len(targets))
		for ai, a := range analyzers {
			fmt.Fprintf(stderr, "  %-14s %s\n", a.Name, analyzerDur[ai].Round(time.Millisecond))
		}
	}
	if *statsJSON != "" {
		snap := statsSnapshot{
			Label:         *statsLabel,
			Analyzers:     len(analyzers),
			Packages:      len(targets),
			LoadMS:        loadDur.Milliseconds(),
			FactsMS:       factsDur.Milliseconds(),
			AnalyzeMS:     analyzeDur.Milliseconds(),
			PerAnalyzerMS: make(map[string]int64, len(analyzers)),
		}
		for ai, a := range analyzers {
			snap.PerAnalyzerMS[a.Name] = analyzerDur[ai].Milliseconds()
		}
		if err := writeStatsJSON(*statsJSON, snap); err != nil {
			fmt.Fprintf(stderr, "wiscape-lint: %v\n", err)
			return 2
		}
	}

	for _, f := range findings {
		fmt.Fprintf(stdout, "%s:%d:%d: %s (%s)\n", f.File, f.Line, f.Col, f.Message, f.Analyzer)
	}

	if len(findings) > 0 && exit == 0 {
		exit = 1
	}
	return exit
}

// finding is one diagnostic from one analyzer, positioned module-relative
// with slash-separated paths (stable across machines).
type finding struct {
	Analyzer string
	File     string
	Line     int
	Col      int
	Message  string
}

// sortFindings orders findings by file, line, column, analyzer and message:
// the order they print in.
func sortFindings(fs []finding) {
	slices.SortFunc(fs, func(a, b finding) int {
		return cmp.Or(strings.Compare(a.File, b.File), cmp.Compare(a.Line, b.Line), cmp.Compare(a.Col, b.Col),
			strings.Compare(a.Analyzer, b.Analyzer), strings.Compare(a.Message, b.Message))
	})
}

// statsSnapshot is one labeled timing record in a -stats-json file.
type statsSnapshot struct {
	Label         string           `json:"label"`
	Analyzers     int              `json:"analyzers"`
	Packages      int              `json:"packages"`
	LoadMS        int64            `json:"load_ms"`
	FactsMS       int64            `json:"facts_ms"`
	AnalyzeMS     int64            `json:"analyze_ms"`
	PerAnalyzerMS map[string]int64 `json:"per_analyzer_ms"`
}

type statsFile struct {
	Snapshots []statsSnapshot `json:"snapshots"`
}

// writeStatsJSON merges snap into the snapshot file at path: a snapshot
// with the same label is replaced in place, a new label appends — so the
// file keeps one entry per tracked configuration ("eight-analyzers",
// "ten-analyzers", …) instead of an unbounded log.
func writeStatsJSON(path string, snap statsSnapshot) error {
	var sf statsFile
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &sf); err != nil {
			return fmt.Errorf("parsing stats file %s: %w", path, err)
		}
	}
	replaced := false
	for i := range sf.Snapshots {
		if sf.Snapshots[i].Label == snap.Label {
			sf.Snapshots[i] = snap
			replaced = true
		}
	}
	if !replaced {
		sf.Snapshots = append(sf.Snapshots, snap)
	}
	data, err := json.MarshalIndent(&sf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// relErr rewrites a parse error's absolute filename module-relative so
// diagnostics match finding output ("file:line:col: message").
func relErr(err error, modDir string) string {
	if se, ok := err.(*scanner.Error); ok {
		file := se.Pos.Filename
		if rel, rerr := filepath.Rel(modDir, file); rerr == nil {
			file = filepath.ToSlash(rel)
		}
		return fmt.Sprintf("%s:%d:%d: %s", file, se.Pos.Line, se.Pos.Column, se.Msg)
	}
	return err.Error()
}

// expand resolves the given patterns to a sorted list of module package
// import paths. "./dir" is the package in that directory of the module and
// "./dir/..." every package at or below it, both relative to the module root
// whatever the working directory ("./..." or "all": the whole module); such
// a pattern that names no package, or no directory, is an error. Anything
// else is taken as a literal import path, for the loader to resolve.
func expand(patterns []string, modDir, modPath string) ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	// addDir adds the package in a directory given relative to the module.
	addDir := func(rel string) {
		if rel == "." {
			add(modPath)
		} else {
			add(modPath + "/" + filepath.ToSlash(rel))
		}
	}
	for _, pat := range patterns {
		if pat == "all" {
			pat = "./..."
		}
		if pat != "." && !strings.HasPrefix(pat, "./") {
			add(strings.TrimSuffix(pat, "/"))
			continue
		}
		rel, tree := strings.CutSuffix(pat, "/...")
		rel = filepath.Clean(filepath.FromSlash(rel))
		if rel != "." && !filepath.IsLocal(rel) {
			return nil, fmt.Errorf("pattern %q leaves the module", pat)
		}
		root := filepath.Join(modDir, rel)
		if !tree {
			if !hasGoFiles(root) {
				return nil, fmt.Errorf("pattern %q names no package in module %s", pat, modPath)
			}
			addDir(rel)
			continue
		}
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			if !hasGoFiles(path) {
				return nil
			}
			rel, err := filepath.Rel(modDir, path)
			if err != nil {
				return err
			}
			addDir(rel)
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("pattern %q: %w", pat, err)
		}
	}
	slices.Sort(out)
	return out, nil
}

// hasGoFiles reports whether dir directly contains at least one non-test
// Go source file.
func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}
