// Package analysis is a stdlib-only static-analysis framework enforcing the
// repo's own invariants — determinism, error handling, goroutine and lock
// discipline, deadline-bounded I/O; `cadmc-vet -list`
// prints the suite with the invariant each analyzer enforces. It is the
// engine behind cmd/cadmc-vet and scripts/check.sh.
//
// The framework deliberately avoids golang.org/x/tools: packages are parsed
// with go/parser and type-checked with go/types, stdlib imports resolve
// through the source importer, and module-internal imports resolve through
// the Loader in load.go. Analysis runs in two phases: Export hooks attach
// cross-package facts (FactSet, keyed by types.Object) over every loaded
// package in dependency order, then Run passes report diagnostics — RunAll
// fans the per-package Run phase out over the parallel worker pool with
// input-order merging, so output is bit-identical at any worker count.
// Analyzers are pluggable values of Analyzer; a finding can be suppressed
// at a specific site with a
//
//	//cadmc:allow <analyzer>... [-- rationale]
//
// comment on the flagged line or the line directly above it.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"cadmc/internal/analysis/cfg"
)

// Diagnostic is one finding at one source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String formats the diagnostic the way cmd/cadmc-vet prints it.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzer is one pluggable invariant check.
type Analyzer struct {
	// Name is the identifier used in output and in //cadmc:allow comments.
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Run inspects the package in pass and reports findings via
	// pass.Reportf.
	Run func(pass *Pass) error
	// Export, when set, runs before any Run pass, over every loaded package
	// in dependency order, and attaches facts to the package's objects via
	// pass.Facts. Export passes must not report diagnostics: cross-package
	// facts are context, findings belong to the Run pass that consumes them.
	Export func(pass *Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Path is the package's import path (e.g. cadmc/internal/nn).
	Path string
	// Facts is the cross-package fact store: written by Export passes in
	// dependency order, read-only during Run passes.
	Facts *FactSet

	allows map[allowKey]bool
	diags  *[]Diagnostic
	// pkg points back to the loaded package for the per-package CFG cache.
	pkg *Package
}

// CFG returns the control-flow graph of the given function body, built on
// first request and cached per package. All flow-sensitive analyzers of one
// package share the cache; the export phase runs serially and the
// diagnostic phase handles each package inside a single worker, so the
// cache needs no lock.
func (p *Pass) CFG(name string, body *ast.BlockStmt) *cfg.Graph {
	if p.pkg == nil {
		return cfg.Build(name, body, p.Info)
	}
	if g, ok := p.pkg.cfgs[body]; ok {
		return g
	}
	g := cfg.Build(name, body, p.Info)
	if p.pkg.cfgs == nil {
		p.pkg.cfgs = make(map[*ast.BlockStmt]*cfg.Graph)
	}
	p.pkg.cfgs[body] = g
	return g
}

// allowKey identifies one suppressed (file line, analyzer) site.
type allowKey struct {
	file     string
	line     int
	analyzer string
}

// IsCommand reports whether the package is an executable (package main):
// cmd/ binaries and examples. Most analyzers only guard library code.
func (p *Pass) IsCommand() bool {
	return p.Pkg != nil && p.Pkg.Name() == "main"
}

// IsInternal reports whether the package lives under internal/.
func (p *Pass) IsInternal() bool {
	return strings.Contains("/"+p.Path+"/", "/internal/")
}

// Reportf records a finding at pos unless a //cadmc:allow comment for this
// analyzer covers the line (same line or the line directly above).
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	for _, line := range []int{position.Line, position.Line - 1} {
		if p.allows[allowKey{position.Filename, line, p.Analyzer.Name}] {
			return
		}
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// allowPrefix introduces a suppression comment: //cadmc:allow <analyzer>.
const allowPrefix = "cadmc:allow"

// collectAllows scans file comments for suppression directives. A directive
// names one or more analyzers separated by spaces; everything after a "--"
// token is a free-form rationale and is not parsed as analyzer names:
//
//	//cadmc:allow mapiter walltime -- replay trace, order is pinned upstream
func collectAllows(fset *token.FileSet, files []*ast.File) map[allowKey]bool {
	allows := make(map[allowKey]bool)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, allowPrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, allowPrefix))
				pos := fset.Position(c.Pos())
				for _, name := range strings.Fields(rest) {
					if name == "--" {
						break
					}
					allows[allowKey{pos.Filename, pos.Line, name}] = true
				}
			}
		}
	}
	expandAllows(fset, files, allows)
	return allows
}

// expandAllows stretches directives over multi-line statements: a directive
// on (or directly above) the first line of a statement whose arguments spill
// onto further lines must suppress a finding wherever the analyzer anchors
// it — a gofmt rewrap must not re-arm a suppressed finding. Only simple
// statements are stretched; block-structured ones (if/for/switch/select and
// friends) keep per-line granularity, so a directive above an `if` does not
// blanket its whole body.
func expandAllows(fset *token.FileSet, files []*ast.File, allows map[allowKey]bool) {
	if len(allows) == 0 {
		return
	}
	directives := make([]allowKey, 0, len(allows))
	for k := range allows {
		directives = append(directives, k)
	}
	sort.Slice(directives, func(i, j int) bool {
		a, b := directives[i], directives[j]
		if a.file != b.file {
			return a.file < b.file
		}
		if a.line != b.line {
			return a.line < b.line
		}
		return a.analyzer < b.analyzer
	})
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if _, ok := n.(ast.Stmt); !ok {
				return true
			}
			switch n.(type) {
			case *ast.BlockStmt, *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt,
				*ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt,
				*ast.LabeledStmt, *ast.CaseClause, *ast.CommClause:
				return true
			}
			start := fset.Position(n.Pos())
			end := fset.Position(n.End())
			if end.Line <= start.Line {
				return true
			}
			for _, k := range directives {
				if k.file != start.Filename || k.line != start.Line && k.line != start.Line-1 {
					continue
				}
				for line := start.Line + 1; line <= end.Line; line++ {
					allows[allowKey{k.file, line, k.analyzer}] = true
				}
			}
			return true
		})
	}
}

// All returns the full analyzer suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{
		SeededRand,
		FloatEq,
		DroppedErr,
		NakedGo,
		PanicFree,
		MapIter,
		Deadline,
		WallTime,
		LockBalance,
	}
}

// ByName resolves a comma-separated analyzer selection; empty selects all.
// Duplicate names are rejected: running one analyzer twice double-reports
// every finding, which is never what a selection means.
func ByName(names string) ([]*Analyzer, error) {
	if strings.TrimSpace(names) == "" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	seen := make(map[string]bool)
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		a := byName[name]
		if a == nil {
			return nil, fmt.Errorf("analysis: unknown analyzer %q", name)
		}
		if seen[name] {
			return nil, fmt.Errorf("analysis: analyzer %q selected twice", name)
		}
		seen[name] = true
		out = append(out, a)
	}
	return out, nil
}

// newPass carries pkg through analyzer a, reporting into diags.
func newPass(pkg *Package, a *Analyzer, facts *FactSet, allows map[allowKey]bool, diags *[]Diagnostic) *Pass {
	return &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		Path:     pkg.Path,
		Facts:    facts,
		allows:   allows,
		diags:    diags,
		pkg:      pkg,
	}
}

// exportFacts runs every fact-exporting analyzer in suite over pkg,
// populating facts. Export passes get a discarded diagnostics sink: facts
// passes describe code, they never report it.
func exportFacts(pkg *Package, suite []*Analyzer, facts *FactSet) error {
	var discard []Diagnostic
	for _, a := range suite {
		if a.Export == nil {
			continue
		}
		if err := a.Export(newPass(pkg, a, facts, nil, &discard)); err != nil {
			return fmt.Errorf("analysis: %s facts on %s: %w", a.Name, pkg.Path, err)
		}
	}
	return nil
}

// diagnose applies every analyzer's Run pass to one package against an
// already-populated (read-only) fact set.
func diagnose(pkg *Package, suite []*Analyzer, facts *FactSet) ([]Diagnostic, error) {
	var diags []Diagnostic
	allows := collectAllows(pkg.Fset, pkg.Files)
	for _, a := range suite {
		if err := a.Run(newPass(pkg, a, facts, allows, &diags)); err != nil {
			return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
		}
	}
	sortDiags(diags)
	return diags, nil
}

func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// Run applies every analyzer in suite to one loaded package and returns the
// findings sorted by position. Facts are computed from this package alone;
// use RunAll for cross-package fact flow.
func Run(pkg *Package, suite []*Analyzer) ([]Diagnostic, error) {
	facts := NewFactSet()
	if err := exportFacts(pkg, suite, facts); err != nil {
		return nil, err
	}
	return diagnose(pkg, suite, facts)
}
