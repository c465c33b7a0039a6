package analysis

import (
	"fmt"

	"cadmc/internal/parallel"
)

// RunAll is the cross-package entry point behind cmd/cadmc-vet and
// TestVetRepoClean. It loads every requested package (plus, implicitly,
// every module package they import), runs the fact-export phase serially
// over the whole module in dependency order — so a fact attached to a
// helper in internal/serving is visible when internal/gateway is analyzed —
// and then fans the per-package diagnostic passes out over the shared
// worker pool. Findings come back sorted by package path, then position,
// bit-identically at any worker count: each package's diagnostics are
// collected into its own slot and merged in input order.
func RunAll(loader *Loader, paths []string, suite []*Analyzer) ([]Diagnostic, error) {
	if loader == nil {
		return nil, fmt.Errorf("analysis: RunAll needs a loader")
	}
	pkgs := make([]*Package, len(paths))
	for i, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			return nil, err
		}
		pkgs[i] = pkg
	}

	// Export facts over every loaded package — requested or pulled in as a
	// dependency — in dependency order. The fact set is frozen afterwards.
	facts := NewFactSet()
	for _, pkg := range loader.Loaded() {
		if err := exportFacts(pkg, suite, facts); err != nil {
			return nil, err
		}
	}

	perPkg := make([][]Diagnostic, len(pkgs))
	errs := make([]error, len(pkgs))
	parallel.For(len(pkgs), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			perPkg[i], errs[i] = diagnose(pkgs[i], suite, facts)
		}
	})
	var out []Diagnostic
	for i, diags := range perPkg {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out = append(out, diags...)
	}
	return out, nil
}
