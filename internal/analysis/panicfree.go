package analysis

import "go/ast"

// PanicFree forbids panic in library packages: the decision engine, the
// emulator and the serving stack must fail with errors a caller can handle,
// not crash a server mid-inference. The only sanctioned sites are the
// shape-violation guards in internal/tensor, each individually allowlisted
// with //cadmc:allow panicfree — indexing with a wrong-rank index is a
// programming error on par with an out-of-range slice index.
var PanicFree = &Analyzer{
	Name: "panicfree",
	Doc:  "library code returns errors; panic only at allowlisted invariant guards",
	Run:  runPanicFree,
}

func runPanicFree(pass *Pass) error {
	if pass.IsCommand() {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && isPanicCall(pass, call) {
				pass.Reportf(call.Pos(), "panic in library code; return an error (//cadmc:allow panicfree only for invariant guards)")
			}
			return true
		})
	}
	return nil
}
