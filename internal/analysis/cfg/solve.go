package cfg

import "go/ast"

// Problem is one forward dataflow analysis over a Graph: a block's in-state
// is the merge of its predecessors' out-states. S is the lattice state;
// values of S must be treated immutably by Transfer and Merge (return fresh
// values rather than mutating arguments), since the solver aliases them
// across blocks.
type Problem[S any] struct {
	// Boundary is the state entering the graph at the entry block.
	Boundary func() S
	// Init is the initial interior state (bottom: "no path reaches here
	// yet"). Unreachable blocks keep it.
	Init func() S
	// Transfer pushes one block's effect through an incoming state.
	Transfer func(b *Block, s S) S
	// Merge joins two states at a control-flow confluence.
	Merge func(a, b S) S
	// Equal detects the fixpoint.
	Equal func(a, b S) bool
}

// Solve iterates p over g to a fixpoint and returns each block's in-state,
// indexed by Block.Index: the state before the block's Transfer, after
// merging predecessor outs. Blocks are swept round-robin in deterministic
// index order, so the result — and any diagnostics derived from it — is
// bit-identical on every run.
func Solve[S any](g *Graph, p Problem[S]) []S {
	n := len(g.Blocks)
	in := make([]S, n)
	out := make([]S, n)
	for i := 0; i < n; i++ {
		in[i] = p.Init()
		out[i] = p.Init()
	}

	// Round-robin to fixpoint. Monotone transfer functions over finite
	// lattices converge; the sweep cap is a safety net that keeps a broken
	// lattice deterministic instead of livelocked.
	maxSweeps := 4*n + 8
	for sweeps := 0; sweeps < maxSweeps; sweeps++ {
		changed := false
		for i, b := range g.Blocks {
			s := p.Init()
			if i == 0 {
				s = p.Boundary()
			}
			for _, src := range b.Preds {
				s = p.Merge(s, out[src.Index])
			}
			if !p.Equal(s, in[i]) {
				in[i] = s
				changed = true
			}
			ns := p.Transfer(b, in[i])
			if !p.Equal(ns, out[i]) {
				out[i] = ns
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return in
}

// WalkNode visits the sub-expressions of one block node in source order,
// with the attribution rules every flow-sensitive analyzer shares:
//
//   - function literals are opaque (their bodies run elsewhere, if ever);
//   - defer statements are opaque in ordinary blocks — the deferred call
//     replays in the epilogue block, where it appears as a bare CallExpr;
//   - a RangeStmt node (a range.head marker) exposes only its Key and
//     Value: its X was evaluated in the predecessor block and its Body has
//     its own blocks.
//
// The epilogue's deferred calls are walked fully (minus nested literals
// that are merely referenced): a deferred func literal executes as part of
// the epilogue, so its body is visible there.
func WalkNode(n ast.Node, epilogue bool, visit func(ast.Node) bool) {
	switch v := n.(type) {
	case *ast.DeferStmt:
		if !epilogue {
			// Registration point only; the deferred call replays in the
			// epilogue block. Analyzers may still react to the node itself.
			visit(v)
			return
		}
	case *ast.RangeStmt:
		if !visit(v) {
			return
		}
		if v.Key != nil {
			WalkNode(v.Key, epilogue, visit)
		}
		if v.Value != nil {
			WalkNode(v.Value, epilogue, visit)
		}
		return
	case *ast.CallExpr:
		if lit, ok := v.Fun.(*ast.FuncLit); ok && epilogue {
			// defer func() { ... }(): the literal body runs as part of the
			// epilogue, so it is visible there. Defers nested inside it run
			// when it exits — still within the epilogue — so they are
			// walked inline as an approximation.
			if !visit(v) {
				return
			}
			for _, arg := range v.Args {
				WalkNode(arg, epilogue, visit)
			}
			WalkNode(lit.Body, epilogue, visit)
			return
		}
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			return false
		}
		if m != n {
			switch m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.DeferStmt:
				if !epilogue {
					visit(m)
					return false
				}
			case *ast.RangeStmt:
				// Block construction never nests a range statement inside
				// another block node; guard against double-attribution
				// anyway.
				return false
			}
		}
		return visit(m)
	})
}
