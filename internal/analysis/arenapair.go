package analysis

import (
	"go/ast"
	"go/token"
	"go/types"

	"cadmc/internal/analysis/cfg"
)

// ArenaPair checks the scratch-arena ownership contract: a buffer acquired
// with parallel.GetF64 or tensor.Scratch must be handed back with
// parallel.PutF64 / tensor.Release on every path out of the acquiring
// function, and must not be used — or escape — after it was handed back (a
// released buffer is re-minted to the next caller; a write through a stale
// reference corrupts someone else's kernel). Concretely, per function:
//
//   - an acquired buffer with no release and no ownership transfer (return,
//     store into a struct/map/global, composite literal) leaks its bucket;
//   - with inline (non-deferred) releases, the CFG decides per path: a
//     return or panic reached with the buffer still held skips the release
//     on that path — including a return placed after the release in source
//     order but on a branch that bypasses it — as does falling off the end
//     of the function; prefer defer;
//   - any use on a path where the buffer may already be released, a second
//     release, or returning a defer-released buffer escapes the buffer
//     past its Put.
var ArenaPair = &Analyzer{
	Name: "arenapair",
	Doc:  "GetF64/Scratch must pair with PutF64/Release on all return paths, with no use after release",
	Run:  runArenaPair,
}

// arenaAcquireFuncs and arenaReleaseFuncs name the arena entry points by
// package path suffix and function name, so the check also binds inside
// internal/parallel and internal/tensor themselves.
var (
	arenaAcquireFuncs = map[string]string{
		"GetF64":  "internal/parallel",
		"Scratch": "internal/tensor",
	}
	arenaReleaseFuncs = map[string]string{
		"PutF64":  "internal/parallel",
		"Release": "internal/tensor",
	}
)

func runArenaPair(pass *Pass) error {
	for _, fn := range flowFuncs(pass) {
		checkArenaFunc(pass, fn)
	}
	return nil
}

// arenaCallTarget resolves a call to one of the arena entry points, whether
// qualified (parallel.GetF64) or package-local (GetF64), returning the
// function name or "".
func arenaCallTarget(pass *Pass, call *ast.CallExpr, table map[string]string) string {
	var ident *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		ident = fun.Sel
	case *ast.Ident:
		ident = fun
	default:
		return ""
	}
	wantPkg, ok := table[ident.Name]
	if !ok {
		return ""
	}
	obj := pass.Info.Uses[ident]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || !pathHasSuffix(fn.Pkg().Path(), wantPkg) {
		return ""
	}
	return ident.Name
}

func pathHasSuffix(path, suffix string) bool {
	return path == suffix || len(path) > len(suffix) && path[len(path)-len(suffix)-1] == '/' &&
		path[len(path)-len(suffix):] == suffix
}

// arenaBuffer tracks one acquired buffer variable inside one function.
type arenaBuffer struct {
	obj    types.Object
	assign *ast.AssignStmt // the (first) acquiring statement
	via    string          // GetF64 or Scratch
	// released is the first release of the buffer in source order, deferred
	// or inline; without one the flow has nothing to decide. Messages cite
	// its line.
	released token.Pos
	// escapes is the first statement through which the buffer value itself
	// leaves the function — ownership transfer.
	escapes token.Pos
}

// checkArenaFunc runs the pairing check over one function body: the arena
// instance of the pairing core (pairing.go), keyed by buffer variable.
// Nested function literals own their acquires (flowFuncs reaches them); a
// deferred literal's uses and releases count here, where its body runs.
func checkArenaFunc(pass *Pass, fn flowFunc) {
	acquires := arenaAcquires(pass, fn.Body)
	if len(acquires) == 0 {
		return
	}
	f := newPairFlow(pass, fn)
	var bufs []*arenaBuffer // by key index
	keyOf := make(map[types.Object]int)
	acquireKey := make(map[*ast.AssignStmt]int)
	for _, buf := range acquires {
		key, seen := keyOf[buf.obj]
		if !seen {
			key = f.addKey(pairIdle)
			keyOf[buf.obj] = key
			bufs = append(bufs, buf)
		}
		acquireKey[buf.assign] = key
	}

	first := func(at *token.Pos, pos token.Pos) {
		if !at.IsValid() || pos < *at {
			*at = pos
		}
	}
	// escape marks the tracked buffers that leave through e as a value: it is
	// returned, stored into a field/element/global, sent on a channel or
	// placed in a composite literal. Mentions inside call arguments or index
	// expressions do not count — `return Col2Im(buf, cs)` hands buf to a
	// callee that copies out of it before any deferred release runs, and
	// `return buf[0]` copies one scalar element; only the buffer flowing out
	// itself (or via a sub-slice / field selector) transfers ownership.
	escape := func(stmt ast.Node, e ast.Expr) {
		ast.Inspect(e, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr, *ast.IndexExpr:
				return false
			case *ast.Ident:
				if key, ok := keyOf[baseIdentObj(pass, n)]; ok {
					first(&bufs[key].escapes, stmt.Pos())
				}
			}
			return true
		})
	}

	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if key, ok := acquireKey[n]; ok {
				// The size arguments are evaluated before the buffer exists;
				// the left-hand side is a definition, not a use.
				cfg.WalkNode(n.Rhs[0], false, visit)
				f.emit(pairAcquire, key, n.Pos())
				return false
			}
			for i, rhs := range n.Rhs {
				if i < len(n.Lhs) {
					if _, local := n.Lhs[i].(*ast.Ident); !local {
						escape(n, rhs)
					}
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				escape(n, res)
			}
		case *ast.SendStmt:
			escape(n, n.Value)
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				escape(n, elt)
			}
		case *ast.CallExpr:
			if arenaCallTarget(pass, n, arenaReleaseFuncs) != "" && len(n.Args) == 1 {
				if key, ok := keyOf[baseIdentObj(pass, n.Args[0])]; ok {
					first(&bufs[key].released, n.Pos())
					f.emit(pairRelease, key, n.Pos())
					return false // the release argument is not a use
				}
			}
		case *ast.Ident:
			if key, ok := keyOf[baseIdentObj(pass, n)]; ok {
				f.emit(pairUse, key, n.Pos())
			}
		}
		return true
	}
	f.scan(visit)

	for key, buf := range bufs {
		switch escapes := buf.escapes.IsValid(); {
		case !buf.released.IsValid() && !escapes:
			pass.Reportf(buf.assign.Pos(),
				"%s buffer %s is never released (PutF64/Release) in this function and does not transfer ownership",
				buf.via, buf.obj.Name())
		case f.keys[key].deferReleased && escapes:
			// Defer covers every return/panic path; only escape-by-return of
			// the released buffer remains to check.
			pass.Reportf(buf.escapes, "arena buffer %s escapes this function but is released by defer; the caller would use freed storage",
				buf.obj.Name())
		}
	}

	line := func(pos token.Pos) int { return pass.Fset.Position(pos).Line }
	f.check(func(ev pairEvent, st pairStatus) {
		buf := bufs[ev.key]
		if !buf.released.IsValid() {
			return // reported above, or ownership moved elsewhere
		}
		// A return or panic reached while the buffer may still be held skips
		// the release on that path, wherever the release sits in source
		// order; a use while it may be released is a stale reference; a
		// second release hands one backing array to two bucket entries.
		mayHeld, mayReleased := st&pairHeld != 0, st&pairReleased != 0
		switch {
		case ev.op == pairUse && mayReleased:
			pass.Reportf(ev.pos, "arena buffer %s used after its release at line %d",
				buf.obj.Name(), line(buf.released))
		case ev.op == pairRelease && mayReleased:
			pass.Reportf(ev.pos, "arena buffer %s is released again here (already released at line %d); the arena would hand the same storage to two callers",
				buf.obj.Name(), line(buf.released))
		case ev.op == pairReturn && mayHeld:
			pass.Reportf(ev.pos, "return path skips the release of arena buffer %s (acquired at line %d); use defer %s",
				buf.obj.Name(), line(buf.assign.Pos()), releaseName(buf.via))
		case ev.op == pairPanic && mayHeld:
			pass.Reportf(ev.pos, "panic path skips the release of arena buffer %s; use defer %s",
				buf.obj.Name(), releaseName(buf.via))
		case ev.op == pairFallOff && mayHeld:
			pass.Reportf(ev.pos, "arena buffer %s is released on some paths but still held when %s falls off the end of the function; use defer %s",
				buf.obj.Name(), fn.Name, releaseName(buf.via))
		}
	})
}

// arenaAcquires finds `x := parallel.GetF64(...)` / `x := tensor.Scratch(...)`
// directly in body, in source order, excluding nested function literals
// (each literal owns its own acquires).
func arenaAcquires(pass *Pass, body *ast.BlockStmt) []*arenaBuffer {
	var out []*arenaBuffer
	ast.Inspect(body, func(n ast.Node) bool {
		if _, lit := n.(*ast.FuncLit); lit {
			return false
		}
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
			return true
		}
		call, isCall := assign.Rhs[0].(*ast.CallExpr)
		ident, isIdent := assign.Lhs[0].(*ast.Ident)
		if !isCall || !isIdent || ident.Name == "_" {
			return true
		}
		if via := arenaCallTarget(pass, call, arenaAcquireFuncs); via != "" {
			if obj := baseIdentObj(pass, ident); obj != nil {
				out = append(out, &arenaBuffer{obj: obj, assign: assign, via: via})
			}
		}
		return true
	})
	return out
}

func releaseName(via string) string {
	if via == "GetF64" {
		return "parallel.PutF64"
	}
	return "tensor.Release"
}
