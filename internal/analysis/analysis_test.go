package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// sharedFset and sharedImporter are reused across fixture tests so the
// stdlib packages the fixtures import are type-checked once per test run.
var (
	sharedFset     = token.NewFileSet()
	sharedImporter = importer.ForCompiler(sharedFset, "source", nil)
)

// fixture type-checks one source string as the package at importPath and
// returns it ready for Run. Fixtures may import anything from the stdlib.
func fixture(t *testing.T, importPath, src string) *Package {
	t.Helper()
	name := fmt.Sprintf("%s_fixture.go", strings.NewReplacer("/", "_", ".", "_").Replace(t.Name()))
	f, err := parser.ParseFile(sharedFset, name, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: sharedImporter}
	tpkg, err := conf.Check(importPath, sharedFset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck fixture: %v", err)
	}
	return &Package{
		Path:  importPath,
		Fset:  sharedFset,
		Files: []*ast.File{f},
		Types: tpkg,
		Info:  info,
	}
}

// want is one expected diagnostic: the 1-based fixture line it lands on and
// a substring of its message.
type want struct {
	line    int
	message string
}

// checkAnalyzer runs one analyzer over a fixture and asserts the exact set
// of diagnostics (position order, line numbers and message substrings).
func checkAnalyzer(t *testing.T, a *Analyzer, importPath, src string, wants []want) {
	t.Helper()
	pkg := fixture(t, importPath, src)
	diags, err := Run(pkg, []*Analyzer{a})
	if err != nil {
		t.Fatalf("run %s: %v", a.Name, err)
	}
	for i, d := range diags {
		if d.Analyzer != a.Name {
			t.Errorf("diagnostic %d attributed to %q, want %q", i, d.Analyzer, a.Name)
		}
	}
	if len(diags) != len(wants) {
		t.Fatalf("%s reported %d diagnostics, want %d:\n%s", a.Name, len(diags), len(wants), formatDiags(diags))
	}
	for i, w := range wants {
		if diags[i].Pos.Line != w.line {
			t.Errorf("diagnostic %d at line %d, want line %d (%s)", i, diags[i].Pos.Line, w.line, diags[i].Message)
		}
		if !strings.Contains(diags[i].Message, w.message) {
			t.Errorf("diagnostic %d message %q does not contain %q", i, diags[i].Message, w.message)
		}
	}
}

func formatDiags(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return b.String()
}

func TestByName(t *testing.T) {
	suite, err := ByName("")
	if err != nil || len(suite) != len(All()) {
		t.Fatalf("empty selection = (%d analyzers, %v), want the full suite", len(suite), err)
	}
	suite, err = ByName("floateq, panicfree")
	if err != nil || len(suite) != 2 || suite[0].Name != "floateq" || suite[1].Name != "panicfree" {
		t.Fatalf("subset selection failed: %v, %v", suite, err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("unknown analyzer name must error")
	}
	if _, err := ByName("floateq,panicfree,floateq"); err == nil {
		t.Fatal("duplicate analyzer selection must error")
	}
}

func TestSuppressionCoversSameAndPreviousLine(t *testing.T) {
	const src = `package fx

func f() {
	panic("same line") //cadmc:allow panicfree
	//cadmc:allow panicfree
	panic("line above")
	panic("unsuppressed")
}
`
	checkAnalyzer(t, PanicFree, "cadmc/internal/fx", src, []want{
		{line: 7, message: "panic in library code"},
	})
}

// TestSuppressionAcrossNewAnalyzers drives one fixture through all four new
// analyzers at once: every flagged site carries an allow for its analyzer,
// so the suite must report nothing — and the identical fixture without the
// comments must produce exactly one finding per analyzer.
func TestSuppressionAcrossNewAnalyzers(t *testing.T) {
	mixed := func(allow1, allow2, allow3, allow4 string) string {
		return `package gateway

import (
	"fmt"
	"net"
	"sync"
	"time"
)

func Mixed(c net.Conn, m map[string]int, p []byte) {
	var mu sync.Mutex
	mu.Lock() ` + allow1 + `
	_, _ = c.Read(p) ` + allow2 + `
	_ = time.Now() ` + allow3 + `
	for k := range m {
		fmt.Println(k) ` + allow4 + `
	}
}
`
	}
	suite := []*Analyzer{MapIter, LockBalance, Deadline, WallTime}
	check := func(name, src string, wantFindings int) {
		fs := newFixtureSet(t, map[string]string{"cadmc/fx2/internal/gateway": src})
		pkg := fs.load("cadmc/fx2/internal/gateway", src)
		diags, err := Run(pkg, suite)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(diags) != wantFindings {
			t.Errorf("%s: %d findings, want %d:\n%s", name, len(diags), wantFindings, formatDiags(diags))
		}
	}
	check("suppressed", mixed(
		"//cadmc:allow lockbalance -- fixture",
		"//cadmc:allow deadline -- fixture",
		"//cadmc:allow walltime -- fixture",
		"//cadmc:allow mapiter -- fixture",
	), 0)
	check("unsuppressed", mixed("", "", "", ""), 4)
}

func TestSuppressionIsPerAnalyzer(t *testing.T) {
	const src = `package fx

func f() {
	panic("wrong analyzer named") //cadmc:allow floateq
}
`
	checkAnalyzer(t, PanicFree, "cadmc/internal/fx", src, []want{
		{line: 4, message: "panic in library code"},
	})
}
