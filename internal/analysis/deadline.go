package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"cadmc/internal/analysis/cfg"
)

// deadlineTargetPkgs are the packages whose goroutines sit on real sockets
// under fault injection: a blocking Read/Write with no deadline and no
// context guard turns a dropped peer into a goroutine leak that survives the
// whole soak run.
var deadlineTargetPkgs = []string{
	"internal/serving",
	"internal/gateway",
	"internal/faultnet",
}

// Deadline checks that blocking connection I/O is dominated by a deadline or
// context guard. The Export phase runs over every module package and marks
// functions whose body performs unguarded blocking I/O with FactBlocking, so
// a gateway-side caller of a serving-side helper inherits the obligation
// across the package boundary. The Run phase reports only inside the target
// packages, only in exported functions (unexported helpers are judged at
// their exported callers), and exempts net.Conn / net.Listener
// implementations themselves: a transport wrapper like faultnet.Conn
// forwards Read/Write by contract and the deadline belongs to whoever owns
// the endpoint.
var Deadline = &Analyzer{
	Name:   "deadline",
	Doc:    "blocking conn I/O in serving, gateway and faultnet needs a SetDeadline or ctx guard first",
	Export: exportDeadline,
	Run:    runDeadline,
}

func isDeadlineTarget(path string) bool {
	for _, p := range deadlineTargetPkgs {
		if strings.HasSuffix(path, p) {
			return true
		}
	}
	return false
}

// deadlineGuardNames are the calls that bound a subsequent blocking
// operation: socket deadlines, or watching a context.
var deadlineGuardNames = map[string]bool{
	"SetDeadline":      true,
	"SetReadDeadline":  true,
	"SetWriteDeadline": true,
}

// blockingConnMethods are the indefinitely-blocking calls on a conn-like
// value. Accept is deliberately absent: an accept loop is expected to park.
var blockingConnMethods = map[string]bool{
	"Read": true, "Write": true, "ReadFrom": true, "WriteTo": true,
}

func hasMethod(t types.Type, name string) bool {
	if t == nil {
		return false
	}
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, name)
	_, ok := obj.(*types.Func)
	return ok
}

// isConnLike duck-types net.Conn: anything carrying Read, Write and
// SetDeadline, concrete or interface.
func isConnLike(t types.Type) bool {
	return hasMethod(t, "Read") && hasMethod(t, "Write") && hasMethod(t, "SetDeadline")
}

func isListenerLike(t types.Type) bool {
	return hasMethod(t, "Accept") && hasMethod(t, "Close")
}

func isNamedFrom(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

func isContextType(t types.Type) bool {
	return isNamedFrom(t, "context", "Context")
}

// firstUnguardedBlock runs a must-guard forward analysis over the CFG and
// returns the earliest blocking call some path reaches without passing a
// guard first. State 2 means every path to this point crossed a guard, 1
// means some path did not, 0 is unreached; the merge takes the minimum, so a
// guard armed on only one branch does not cover the join — the blind spot of
// the earlier source-order scan, which accepted any guard textually before
// the first blocking call. Within one CFG node the scan is a flat source
// -order walk that descends into function literals, preserving the old
// treatment of closures and deferred calls (a guard or a blocking call
// inside them counts where it is written).
func firstUnguardedBlock(pass *Pass, name string, body *ast.BlockStmt) (token.Pos, string, bool) {
	g := pass.CFG(name, body)
	scan := func(s int, node ast.Node, report func(pos token.Pos, desc string)) int {
		ast.Inspect(node, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if isDeadlineGuard(pass, call) {
				s = 2
				return true
			}
			if report != nil && s == 1 {
				if desc, blocking := isBlockingCall(pass, call); blocking {
					report(call.Pos(), desc)
				}
			}
			return true
		})
		return s
	}
	// The defers epilogue replays conditionally-registered defers as if they
	// always ran, which would charge a deferred blocking call to paths that
	// never registered it; the registration-point walk above already judges
	// deferred calls, so the epilogue is skipped outright.
	prob := cfg.Problem[int]{
		Boundary: func() int { return 1 },
		Init:     func() int { return 0 },
		Transfer: func(b *cfg.Block, s int) int {
			if s == 0 || b == g.Epilogue() {
				return s
			}
			for _, node := range b.Nodes {
				s = scan(s, node, nil)
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
	in := cfg.Solve(g, prob)

	var pos token.Pos
	var desc string
	for _, blk := range g.Blocks {
		s := in[blk.Index]
		if s == 0 || blk == g.Epilogue() {
			continue
		}
		for _, node := range blk.Nodes {
			s = scan(s, node, func(p token.Pos, d string) {
				if pos == 0 || p < pos {
					pos, desc = p, d
				}
			})
		}
	}
	return pos, desc, pos != 0
}

func isDeadlineGuard(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if deadlineGuardNames[sel.Sel.Name] {
		return true
	}
	// ctx.Done() in a select arm, or a ctx.Err() bail-out, counts as the
	// context-side guard.
	if sel.Sel.Name == "Done" || sel.Sel.Name == "Err" {
		if t := pass.Info.Types[sel.X].Type; isContextType(t) {
			return true
		}
	}
	return false
}

func isBlockingCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		recv := pass.Info.Types[fun.X].Type
		name := fun.Sel.Name
		// io.ReadFull(conn, buf) is the same parked Read one call away — and
		// how the wire codec reads every frame.
		if id, ok := fun.X.(*ast.Ident); ok && (name == "ReadFull" || name == "ReadAtLeast") && len(call.Args) > 0 {
			if pkg, ok := pass.Info.Uses[id].(*types.PkgName); ok && pkg.Imported().Path() == "io" && isConnLike(pass.Info.Types[call.Args[0]].Type) {
				return fmt.Sprintf("io.%s on a connection", name), true
			}
		}
		if blockingConnMethods[name] && isConnLike(recv) {
			return fmt.Sprintf("%s on a connection", name), true
		}
		if obj := pass.Info.Uses[fun.Sel]; obj != nil && pass.Facts != nil && pass.Facts.HasFact(obj, FactBlocking) {
			return fmt.Sprintf("call to %s, which blocks on connection I/O", obj.Name()), true
		}
	case *ast.Ident:
		if obj := pass.Info.Uses[fun]; obj != nil && pass.Facts != nil && pass.Facts.HasFact(obj, FactBlocking) {
			return fmt.Sprintf("call to %s, which blocks on connection I/O", obj.Name()), true
		}
	}
	return "", false
}

// exportDeadline marks every function containing unguarded blocking I/O with
// FactBlocking, iterating to a fixed point so intra-package call chains
// propagate regardless of declaration order.
func exportDeadline(pass *Pass) error {
	for {
		added := false
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				obj, _ := pass.Info.Defs[fn.Name].(*types.Func)
				if obj == nil || pass.Facts.HasFact(obj, FactBlocking) {
					continue
				}
				if _, _, blocked := firstUnguardedBlock(pass, fn.Name.Name, fn.Body); blocked {
					pass.Facts.ExportFact(obj, FactBlocking)
					added = true
				}
			}
		}
		if !added {
			return nil
		}
	}
}

func runDeadline(pass *Pass) error {
	if !isDeadlineTarget(pass.Path) {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !fn.Name.IsExported() {
				continue
			}
			if recv := receiverBaseType(pass, fn); recv != nil && (isConnLike(recv) || isListenerLike(recv)) {
				continue
			}
			if pos, desc, blocked := firstUnguardedBlock(pass, fn.Name.Name, fn.Body); blocked {
				pass.Reportf(pos,
					"%s can park forever; arm SetDeadline/SetReadDeadline or select on ctx.Done() first", desc)
			}
		}
	}
	return nil
}

func receiverBaseType(pass *Pass, fn *ast.FuncDecl) types.Type {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return nil
	}
	return pass.Info.Types[fn.Recv.List[0].Type].Type
}
