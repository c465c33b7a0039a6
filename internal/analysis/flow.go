package analysis

import (
	"go/ast"
	"strconv"
)

// flowFunc is one unit of intraprocedural flow analysis: a function
// declaration or a function literal. Literals are analyzed as independent
// functions — the CFG of the enclosing function treats them as opaque
// values — so a goroutine body gets its own graph.
type flowFunc struct {
	// Name labels the CFG: the declared name, or funclit@<line>.
	Name string
	Body *ast.BlockStmt
}

// flowFuncs enumerates every function body in the pass's files in source
// order: declarations first, then the literals nested inside them (also in
// source order). The order is deterministic, so diagnostics produced by
// walking it are too.
func flowFuncs(pass *Pass) []flowFunc {
	var out []flowFunc
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			out = append(out, flowFunc{Name: fd.Name.Name, Body: fd.Body})
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					line := pass.Fset.Position(lit.Pos()).Line
					out = append(out, flowFunc{
						Name: fd.Name.Name + "@funclit" + strconv.Itoa(line),
						Body: lit.Body,
					})
				}
				return true
			})
		}
	}
	return out
}
