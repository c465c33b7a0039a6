package cfg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parseFunc parses src (a complete file) and returns the named function's
// body plus the fileset. No type checking: the dump tests exercise the
// spelling fallback of panic/os.Exit detection.
func parseFunc(t *testing.T, src, name string) (*token.FileSet, *ast.FuncDecl) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fset, fd
		}
	}
	t.Fatalf("no function %q in fixture", name)
	return nil, nil
}

func buildNamed(t *testing.T, src, name string) (*token.FileSet, *Graph) {
	t.Helper()
	fset, fd := parseFunc(t, src, name)
	return fset, Build(fd.Name.Name, fd.Body, nil)
}

// The kitchen-sink fixture exercises every construct the builder models.
const kitchenSink = `package fx

import "os"

func all(n int, ch chan int, xs []int, v any) int {
	defer cleanup()
	total := 0
	if n > 0 {
		total++
	} else {
		total--
	}
	for i := 0; i < n; i++ {
		if i == 3 {
			continue
		}
		if i == 5 {
			break
		}
		total += i
	}
outer:
	for _, x := range xs {
		switch x {
		case 1:
			total += x
			fallthrough
		case 2:
			total++
		case 3:
			continue outer
		default:
			break outer
		}
	}
	switch v.(type) {
	case int:
		total++
	case string:
		total--
	}
	select {
	case got := <-ch:
		total += got
	case ch <- total:
	default:
		total = 0
	}
	if total < 0 {
		goto fail
	}
	if total == 7 {
		panic("seven")
	}
	if total == 9 {
		os.Exit(2)
	}
	go background(ch)
	return total
fail:
	return -1
}

func cleanup()             {}
func background(chan int)  {}
`

func TestDumpKitchenSink(t *testing.T) {
	fset, g := buildNamed(t, kitchenSink, "all")
	got := Dump(g, fset)
	want := kitchenSinkDump
	if got != want {
		t.Errorf("dump mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestDumpDeterministic pins that two builds of the same AST dump
// byte-identically — the property the vet determinism gate rests on.
func TestDumpDeterministic(t *testing.T) {
	fset, fd := parseFunc(t, kitchenSink, "all")
	a := Dump(Build("all", fd.Body, nil), fset)
	b := Dump(Build("all", fd.Body, nil), fset)
	if a != b {
		t.Fatal("two builds of the same function dumped differently")
	}
}

func TestExitAndEpilogueWiring(t *testing.T) {
	_, g := buildNamed(t, kitchenSink, "all")
	if g.Exit() == nil || g.Epilogue() == nil {
		t.Fatal("missing exit or epilogue block")
	}
	if len(g.Epilogue().Nodes) != 1 {
		t.Fatalf("epilogue has %d nodes, want the one deferred cleanup() call", len(g.Epilogue().Nodes))
	}
	// The epilogue is the exit's only live predecessor: every return and
	// panic funnels through the deferred calls.
	for _, p := range g.Exit().Preds {
		if p != g.Epilogue() {
			t.Errorf("exit has predecessor b%d (%s), want only the epilogue", p.Index, p.Kind)
		}
	}
	// os.Exit terminates: its block must have no successors.
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if es, ok := n.(*ast.ExprStmt); ok {
				if call, ok := es.X.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Exit" {
						if len(b.Succs) != 0 {
							t.Errorf("os.Exit block b%d has successors %v, want none", b.Index, b.Succs)
						}
					}
				}
			}
		}
	}
}

func TestDeferReverseOrder(t *testing.T) {
	const src = `package fx

func f() {
	defer first()
	defer second()
}

func first()  {}
func second() {}
`
	_, g := buildNamed(t, src, "f")
	ep := g.Epilogue()
	if len(ep.Nodes) != 2 {
		t.Fatalf("epilogue has %d nodes, want 2", len(ep.Nodes))
	}
	names := make([]string, 0, 2)
	for _, n := range ep.Nodes {
		call := n.(*ast.CallExpr)
		names = append(names, call.Fun.(*ast.Ident).Name)
	}
	if names[0] != "second" || names[1] != "first" {
		t.Fatalf("epilogue order %v, want LIFO [second first]", names)
	}
}

// TestSolveForwardMust checks the all-paths (merge = AND) forward analysis
// the deadline analyzer uses: "was guard() called on every path before this
// point". States: 0 = bottom, 1 = unguarded, 2 = guarded.
func TestSolveForwardMust(t *testing.T) {
	const src = `package fx

func f(a bool) {
	if a {
		guard()
	}
	use()
}

func g(a bool) {
	if a {
		guard()
	} else {
		guard()
	}
	use()
}

func guard() {}
func use()   {}
`
	calledBefore := func(t *testing.T, fn string) map[string]int {
		t.Helper()
		_, g := buildNamed(t, src, fn)
		prob := Problem[int]{
			Boundary: func() int { return 1 },
			Init:     func() int { return 0 },
			Transfer: func(b *Block, s int) int {
				for _, n := range b.Nodes {
					WalkNode(n, b == g.Epilogue(), func(m ast.Node) bool {
						if call, ok := m.(*ast.CallExpr); ok {
							if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "guard" && s != 0 {
								s = 2
							}
						}
						return true
					})
				}
				return s
			},
			Merge: func(a, b int) int {
				if a == 0 {
					return b
				}
				if b == 0 {
					return a
				}
				if a < b {
					return a
				}
				return b
			},
			Equal: func(a, b int) bool { return a == b },
		}
		in := Solve(g, prob)
		states := make(map[string]int)
		for _, b := range g.Blocks {
			for _, n := range b.Nodes {
				WalkNode(n, false, func(m ast.Node) bool {
					if call, ok := m.(*ast.CallExpr); ok {
						if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "use" {
							states["use"] = in[b.Index]
						}
					}
					return true
				})
			}
		}
		return states
	}

	if got := calledBefore(t, "f")["use"]; got != 1 {
		t.Errorf("f: use() state = %d, want 1 (guard only on one path)", got)
	}
	if got := calledBefore(t, "g")["use"]; got != 2 {
		t.Errorf("g: use() state = %d, want 2 (guard on both paths)", got)
	}
}

func TestUnreachableMarkedDead(t *testing.T) {
	const src = `package fx

func f() int {
	return 1
	println("dead")
	return 2
}
`
	_, g := buildNamed(t, src, "f")
	dead := 0
	for _, b := range g.Blocks {
		if !b.Live && len(b.Nodes) > 0 {
			dead++
		}
	}
	if dead == 0 {
		t.Error("no dead blocks found for unreachable code")
	}
}

func TestWalkNodeSkipsFuncLitAndDefer(t *testing.T) {
	const src = `package fx

func f() {
	run(func() { inner() })
	defer deferred()
}

func run(func())  {}
func inner()     {}
func deferred()  {}
`
	_, g := buildNamed(t, src, "f")
	seen := map[string]bool{}
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			WalkNode(n, b == g.Epilogue(), func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok {
						seen[id.Name] = true
					}
				}
				return true
			})
		}
	}
	if seen["inner"] {
		t.Error("WalkNode descended into a function literal")
	}
	if !seen["run"] {
		t.Error("WalkNode missed the run(...) call")
	}
	if !seen["deferred"] {
		t.Error("the deferred call is invisible in the epilogue")
	}
}
