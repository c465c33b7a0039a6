// Command cadmc-vet runs the repo's custom static-analysis suite
// (internal/analysis) over the module; `cadmc-vet -list` names the
// analyzers and the invariant each enforces. It is stdlib-only — packages
// are parsed with go/parser and type-checked with go/types — and is wired
// into scripts/check.sh next to gofmt, go vet and go test -race.
// Cross-package facts (e.g. "this helper blocks without a deadline") are
// computed over every loaded package in dependency order before the
// per-package diagnostic passes fan out over the worker pool.
//
// Usage:
//
//	cadmc-vet [-analyzers seededrand,floateq] [-list] [-json]
//	          [-baseline vet-baseline.json] [packages]
//
// Package patterns resolve against the module root (found by walking up
// from the working directory to go.mod): "./..." scans everything, a plain
// relative directory scans one package. A relative -baseline path also
// resolves against the module root, so the gate runs identically from any
// directory. With -baseline, both new findings and stale baseline entries
// fail the gate. Exit status: 0 clean (or matching the baseline), 1
// findings or baseline delta, 2 usage or load error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"cadmc/internal/analysis"
)

func main() {
	os.Exit(vetRun(os.Args[1:], os.Stdout, os.Stderr))
}

// vetRun is main with the process edges (args, streams, exit status) made
// injectable for tests.
func vetRun(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cadmc-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	analyzers := fs.String("analyzers", "", "comma-separated analyzer subset (default: all)")
	list := fs.Bool("list", false, "print the analyzer suite and exit")
	jsonOut := fs.Bool("json", false, "emit the findings as a JSON report on stdout")
	baseline := fs.String("baseline", "", "JSON baseline to diff against; new and stale entries both fail")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	suite, err := analysis.ByName(*analyzers)
	if err != nil {
		fmt.Fprintln(stderr, "cadmc-vet:", err)
		return 2
	}
	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(stderr, "cadmc-vet:", err)
		return 2
	}
	findings, module, err := run(root, suite, fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "cadmc-vet:", err)
		return 2
	}

	report := analysis.NewJSONReport(module, suite, root, findings)
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(stderr, "cadmc-vet:", err)
			return 2
		}
	} else {
		for _, d := range findings {
			fmt.Fprintln(stdout, d)
		}
	}

	if *baseline != "" {
		path := *baseline
		if !filepath.IsAbs(path) {
			path = filepath.Join(root, path)
		}
		base, err := analysis.LoadBaseline(path)
		if err != nil {
			fmt.Fprintln(stderr, "cadmc-vet:", err)
			return 2
		}
		delta := analysis.DiffBaseline(report.Findings, base.Findings)
		for _, f := range delta.New {
			fmt.Fprintf(stderr, "cadmc-vet: new finding not in baseline: %s:%d: [%s] %s\n",
				f.File, f.Line, f.Analyzer, f.Message)
		}
		for _, f := range delta.Stale {
			fmt.Fprintf(stderr, "cadmc-vet: stale baseline entry (fixed or moved; regenerate with make vet-json): %s: [%s] %s\n",
				f.File, f.Analyzer, f.Message)
		}
		if !delta.Empty() {
			return 1
		}
		return 0
	}

	if len(findings) > 0 {
		fmt.Fprintf(stderr, "cadmc-vet: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// run loads the matching packages and applies the suite with cross-package
// facts, returning the findings and the module path.
func run(root string, suite []*analysis.Analyzer, patterns []string) ([]analysis.Diagnostic, string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	paths, err := analysis.Expand(root, patterns)
	if err != nil {
		return nil, "", err
	}
	if len(paths) == 0 {
		return nil, "", fmt.Errorf("no packages match %v", patterns)
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		return nil, "", err
	}
	findings, err := analysis.RunAll(loader, paths, suite)
	if err != nil {
		return nil, "", err
	}
	return findings, loader.Module(), nil
}

// findModuleRoot walks up from the working directory to the first go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above working directory")
		}
		dir = parent
	}
}
