package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mutant is one seeded bug: an exact snippet of a real repo source file and
// what a careless edit would leave in its place. The named analyzer must
// report in the mutated file; anything else the suite says about the
// mutated tree is a false positive.
type mutant struct {
	analyzer string
	file     string // module-relative, slash-separated
	what     string
	old, new string
}

// corpus is the seeded-bug table behind DESIGN §10's recall table. Every
// snippet must occur exactly once in its file: when the code under it moves
// on, the test fails until the entry is re-pointed — a corpus that silently
// skips entries measures nothing. Mutants must still type-check (keep
// imports used).
var corpus = []mutant{
	// lockbalance
	{"lockbalance", "internal/serving/server.go", "Unlock dropped on Close's early-return branch",
		"\tif s.closed {\n\t\ts.mu.Unlock()\n\t\treturn nil\n\t}\n\ts.closed = true\n\tlis := s.lis\n",
		"\tif s.closed {\n\t\treturn nil\n\t}\n\ts.closed = true\n\tlis := s.lis\n"},
	{"lockbalance", "internal/serving/resilient.go", "defer c.mu.Unlock() deleted from ResilientClient.offload",
		"\tc.mu.Lock()\n\tdefer c.mu.Unlock()\n\tif c.closed {\n\t\treturn nil, errors.New(\"serving: resilient client closed\")\n",
		"\tc.mu.Lock()\n\tif c.closed {\n\t\treturn nil, errors.New(\"serving: resilient client closed\")\n"},
	{"lockbalance", "internal/telemetry/registry.go", "Registry.Snapshot pairs RLock with Unlock",
		"\t\thists[k] = v\n\t}\n\tr.mu.RUnlock()\n",
		"\t\thists[k] = v\n\t}\n\tr.mu.Unlock()\n"},
	{"lockbalance", "internal/gateway/gateway.go", "Unlock dropped on Start's newWorker-failed branch",
		"\t\t\tg.started.Store(false)\n\t\t\tg.mu.Unlock()\n\t\t\treturn err\n",
		"\t\t\tg.started.Store(false)\n\t\t\treturn err\n"},

	// deadline
	{"deadline", "internal/serving/benchwire.go", "SetDeadline stripped from WireBench.RoundTrip",
		"\t_ = b.conn.SetDeadline(time.Time{})\n", ""},
	{"deadline", "internal/serving/server.go", "per-request read deadline stripped from the connection handler",
		"\t\tif err := conn.SetReadDeadline(time.Now().Add(idle)); err != nil {\n\t\t\treturn\n\t\t}\n\t\tif err := c.readRequest(req); err != nil {\n",
		"\t\tif err := c.readRequest(req); err != nil {\n"},

	// mapiter
	{"mapiter", "internal/accuracy/oracle.go", "collected map keys left unsorted",
		"\tsort.Strings(names)\n", "\t_ = sort.Strings\n"},
	{"mapiter", "internal/latency/device.go", "collected kernel sizes left unsorted",
		"\tsort.Ints(kernels)\n", "\t_ = sort.Ints\n"},

	// walltime
	{"walltime", "internal/gateway/supervisor.go", "checkWorkers reads time.Now instead of the injected clock",
		"func (g *Gateway) checkWorkers() {\n\tnow := g.cfg.Clock.Now()\n",
		"func (g *Gateway) checkWorkers() {\n\tnow := time.Duration(time.Now().UnixNano())\n"},
	{"walltime", "internal/gateway/worker.go", "execStart stamped from the wall clock",
		"\texecStart := w.g.cfg.Clock.Now()\n",
		"\texecStart := time.Duration(time.Now().UnixNano())\n"},

	// seededrand
	{"seededrand", "internal/network/estimator.go", "estimator noise drawn from the global source",
		"c.rng.NormFloat64()", "rand.NormFloat64()"},
	{"seededrand", "internal/rl/param.go", "sampling drawn from the global source",
		"\tr := rng.Float64()\n", "\tr := rand.Float64()\n"},

	// droppederr
	{"droppederr", "internal/gateway/worker.go", "Close error dropped without the explicit discard",
		"\t\t_ = c.Close()\n", "\t\tc.Close()\n"},
	{"droppederr", "internal/faultnet/faultnet.go", "inner Close error dropped without the explicit discard",
		"\t_ = c.inner.Close()\n", "\tc.inner.Close()\n"},

	// nakedgo
	{"nakedgo", "internal/gateway/gateway.go", "supervisor loop spawned with no WaitGroup slot",
		"\t\tg.wg.Add(1)\n\t\tgo g.supervise(&g.wg)\n",
		"\t\tgo func() {\n\t\t\tfor {\n\t\t\t\tg.checkWorkers()\n\t\t\t}\n\t\t}()\n"},
	{"nakedgo", "internal/parallel/parallel.go", "pool worker body moved out of the go statement's view",
		"\t\tgo func() {\n\t\t\tfor f := range tasks {\n\t\t\t\tf()\n\t\t\t}\n\t\t}()\n\t}\n}\n",
		"\t\tgo drainTasks()\n\t}\n}\n\nfunc drainTasks() {\n\tfor f := range tasks {\n\t\tf()\n\t}\n}\n"},

	// floateq
	{"floateq", "internal/core/treesearch.go", "reward tie decided by exact equality",
		"(almostEqual(tree.Root.Reward, res.Tree.Root.Reward) &&",
		"(tree.Root.Reward == res.Tree.Root.Reward &&"},
	{"floateq", "internal/latency/transfer.go", "degenerate fit detected by exact equality",
		"\tif math.Abs(denom) < 1e-12 {\n", "\tif n*sxx == sx*sx {\n"},

	// panicfree
	{"panicfree", "internal/serving/resilient.go", "mixed-shape batch panics instead of returning an error",
		"\t\treturn nil, errors.New(\"serving: batch mixes activation shapes; one frame carries one\")\n",
		"\t\tpanic(\"serving: batch mixes activation shapes; one frame carries one\")\n"},
	{"panicfree", "internal/integrity/integrity.go", "nil net panics instead of returning an error",
		"\t\treturn nil, errors.New(\"integrity: manifest of a nil net\")\n",
		"\t\tpanic(\"integrity: manifest of a nil net\")\n"},
}

// corpusSkipDirs are left out of the scratch copy: the benchmark is its own
// module, and the analyzers' fixtures are not module code.
var corpusSkipDirs = map[string]bool{"benchmark": true, "testdata": true}

// copyModule copies go.mod and every non-test Go file of the module at root
// into dst, so mutants never touch the working tree.
func copyModule(t *testing.T, root, dst string) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || corpusSkipDirs[name]) {
				return filepath.SkipDir
			}
			return nil
		}
		if name != "go.mod" && (!strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go")) {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		return os.WriteFile(out, data, 0o644)
	})
	if err != nil {
		t.Fatalf("copy module: %v", err)
	}
}

// vetTree runs the full suite over every package of the module at root and
// returns the findings with module-relative file names, plus the packages.
func vetTree(t *testing.T, root string) ([]Diagnostic, []*Package) {
	t.Helper()
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := Expand(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunAll(loader, paths, All())
	if err != nil {
		t.Fatalf("mutated tree does not load (a mutant must still type-check): %v", err)
	}
	for i := range diags {
		rel, err := filepath.Rel(root, diags[i].Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		diags[i].Pos.Filename = filepath.ToSlash(rel)
	}
	return diags, loader.Loaded()
}

// TestSeededBugCorpus measures the suite on bugs seeded into real repo code:
// per analyzer, how many sites it has to guard, how many mutants of those
// sites it catches, and how much it says that it should not. It enforces the
// rule of DESIGN §10 — an analyzer with no site to mutate or no recall is
// deleted, not baselined — and checks the recall table recorded there.
func TestSeededBugCorpus(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	clean := t.TempDir()
	copyModule(t, root, clean)

	// The unmutated tree: zero findings, and the site census.
	diags, pkgs := vetTree(t, clean)
	falsePos := make(map[string]int)
	for _, d := range diags {
		falsePos[d.Analyzer]++
		t.Errorf("finding on the unmutated tree: %s", d)
	}
	sites := corpusSites(pkgs)

	// Mutants in different files share one tree, one load and one RunAll; a
	// second mutant of the same file waits for the next round.
	caught := make([]bool, len(corpus))
	done := make([]bool, len(corpus))
	for left := len(corpus); left > 0; {
		dir := t.TempDir()
		copyModule(t, clean, dir)
		round := make(map[string]int) // file → corpus index
		for i, m := range corpus {
			if _, taken := round[m.file]; done[i] || taken {
				continue
			}
			round[m.file], done[i] = i, true
			left--
			path := filepath.Join(dir, filepath.FromSlash(m.file))
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%s mutant %q: %v", m.analyzer, m.what, err)
			}
			if n := strings.Count(string(src), m.old); n != 1 {
				t.Fatalf("%s mutant %q: snippet occurs %d times in %s, want exactly 1; re-point the corpus entry", m.analyzer, m.what, n, m.file)
			}
			if err := os.WriteFile(path, []byte(strings.Replace(string(src), m.old, m.new, 1)), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		diags, _ := vetTree(t, dir)
		for _, d := range diags {
			if i, ok := round[d.Pos.Filename]; ok && corpus[i].analyzer == d.Analyzer {
				caught[i] = true
				continue
			}
			falsePos[d.Analyzer]++
			t.Errorf("false positive on a mutated tree (no mutant asks %s to report in this file): %s", d.Analyzer, d)
		}
	}

	mutants, hits := make(map[string]int), make(map[string]int)
	files := make(map[string]map[string]bool)
	for i, m := range corpus {
		mutants[m.analyzer]++
		if files[m.analyzer] == nil {
			files[m.analyzer] = make(map[string]bool)
		}
		files[m.analyzer][m.file] = true
		if caught[i] {
			hits[m.analyzer]++
		} else {
			t.Errorf("%s missed mutant %q in %s", m.analyzer, m.what, m.file)
		}
	}
	design, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	var table strings.Builder
	table.WriteString("| analyzer | sites in scope | mutants | caught | false positives |\n|---|---|---|---|---|\n")
	for _, a := range All() {
		fmt.Fprintf(&table, "| `%s` | %d | %d | %d | %d |\n", a.Name, sites[a.Name], mutants[a.Name], hits[a.Name], falsePos[a.Name])
		if sites[a.Name] == 0 || len(files[a.Name]) < 2 {
			t.Errorf("%s has %d sites in scope and mutants in %d distinct files; an analyzer with nothing to guard is deleted, not baselined", a.Name, sites[a.Name], len(files[a.Name]))
		}
		// The site count moves with the code base and is recorded as of the
		// last edit of the table; the recall columns must match exactly.
		row := regexp.MustCompile(fmt.Sprintf("(?m)^\\| `%s` \\| \\d+ \\| %d \\| %d \\| %d \\|$", a.Name, mutants[a.Name], hits[a.Name], falsePos[a.Name]))
		if !row.Match(design) {
			t.Errorf("DESIGN.md's recall table has no row matching %s: %d mutants, %d caught, %d false positives", a.Name, mutants[a.Name], hits[a.Name], falsePos[a.Name])
		}
	}
	t.Logf("seeded-bug recall (paste into DESIGN §10 when it changes):\n%s", table.String())
}

// corpusSites counts, per analyzer, the places in the loaded module where
// the analyzer's question arises at all — the denominator that says whether
// it has anything to guard.
func corpusSites(pkgs []*Package) map[string]int {
	sites := make(map[string]int)
	for _, pkg := range pkgs {
		pass := &Pass{Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, Info: pkg.Info, Path: pkg.Path, Facts: NewFactSet()}
		library := !pass.IsCommand()
		// funcOf names the package of a pkg.Func reference, "" for anything
		// else (types, constants, methods).
		funcOf := func(sel *ast.SelectorExpr) string {
			if _, ok := pass.Info.Uses[sel.Sel].(*types.Func); !ok {
				return ""
			}
			if id, ok := sel.X.(*ast.Ident); ok {
				if name, ok := pass.Info.Uses[id].(*types.PkgName); ok {
					return name.Imported().Path()
				}
			}
			return ""
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					if library {
						sites["nakedgo"]++
					}
				case *ast.RangeStmt:
					if t := pass.Info.Types[n.X].Type; t != nil && isMapType(t) {
						sites["mapiter"]++
					}
				case *ast.BinaryExpr:
					if library && (n.Op == token.EQL || n.Op == token.NEQ) &&
						(isFloat(pass.Info.Types[n.X].Type) || isFloat(pass.Info.Types[n.Y].Type)) {
						sites["floateq"]++
					}
				case *ast.ExprStmt:
					if call, ok := n.X.(*ast.CallExpr); ok && pass.IsInternal() && returnsError(pass, call) {
						sites["droppederr"]++
					}
				case *ast.SelectorExpr:
					switch path := funcOf(n); {
					case library && (path == "math/rand" || path == "math/rand/v2"):
						sites["seededrand"]++
					case path == "time" && isClockInjected(pass.Path):
						sites["walltime"]++
					}
				case *ast.CallExpr:
					if isPanicCall(pass, n) && library {
						sites["panicfree"]++
					}
					if _, blocking := isBlockingCall(pass, n); blocking && isDeadlineTarget(pass.Path) {
						sites["deadline"]++
					}
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok {
						break
					}
					if m, ok := pass.Info.Uses[sel.Sel].(*types.Func); ok && m.Pkg() != nil && m.Pkg().Path() == "sync" &&
						(m.Name() == "Lock" || m.Name() == "RLock") {
						sites["lockbalance"]++
					}
				}
				return true
			})
		}
	}
	return sites
}
