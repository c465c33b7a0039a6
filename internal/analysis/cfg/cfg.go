// Package cfg builds per-function intraprocedural control-flow graphs from
// the AST, without golang.org/x/tools. It is the substrate under the
// flow-sensitive analyzers in internal/analysis (the acquire/release
// pairing core behind arenapair and lockbalance, and deadline's must-guard
// pass): a Graph of basic Blocks connected by execution-order edges, plus a
// generic forward worklist solver (Solve) over caller-supplied lattice
// states.
//
// Construction rules:
//
//   - Blocks[0] is the entry block; statements accumulate into the current
//     block until a control construct splits the flow.
//   - if/for/range/switch/type-switch/select each get dedicated blocks with
//     labeled kinds (for Dump); condition and tag expressions are recorded
//     in the block that evaluates them.
//   - break/continue (bare or labeled), goto and labeled statements resolve
//     to explicit edges; unreachable code after a jump lands in a block
//     that reachability marking leaves dead.
//   - return and panic edge into the defer epilogue (see below) and from
//     there to the synthetic Exit block. os.Exit terminates the process —
//     its block gets no successors at all, so "at exit" analyses never see
//     those paths and deferred calls correctly do not run.
//   - defer is modeled as an exit-edge epilogue: every DeferStmt's call is
//     replayed in a dedicated "defers" block crossed by every return, panic
//     and fall-off-the-end edge, in reverse registration (source) order.
//     Conditionally registered defers are approximated as always running —
//     sound for may-analyses of releases, and documented for the rest.
//   - function literals are opaque: their internal control flow never
//     leaks into the enclosing graph (a return inside a closure is not a
//     return of the enclosing function). Analyzers decide per-check
//     whether to descend into literal bodies.
//
// Block order is the deterministic construction order of a fixed AST walk,
// so any analysis that iterates blocks by Index — including Solve's
// round-robin worklist — produces bit-identical results at any
// parallel.For worker count or GOMAXPROCS setting.
package cfg

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Graph is the control-flow graph of one function body.
type Graph struct {
	// Name labels the graph in dumps (function name, or "func" literals).
	Name string
	// Blocks holds every block in deterministic construction order;
	// Blocks[0] is the entry block.
	Blocks []*Block

	exit     *Block
	epilogue *Block
}

// Exit returns the synthetic exit block every returning path reaches.
func (g *Graph) Exit() *Block { return g.exit }

// Epilogue returns the synthetic "defers" block crossed by every return,
// panic and fall-off edge. It is empty when the function registers no
// defers.
func (g *Graph) Epilogue() *Block { return g.epilogue }

// Block is one straight-line run of nodes with a single entry point.
type Block struct {
	Index int
	// Kind labels why the block exists: "entry", "exit", "defers",
	// "if.then", "for.body", "select.arm", "label.<name>", ...
	Kind string
	// Nodes are the statements and control expressions executed by this
	// block, in evaluation order. The epilogue block holds the deferred
	// *ast.CallExprs (reverse registration order) rather than statements.
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
	// Live is true when the block is reachable from entry.
	Live bool
}

func (b *Block) add(n ast.Node) { b.Nodes = append(b.Nodes, n) }

// Build constructs the CFG of one function body. info may be nil (panic and
// os.Exit detection then falls back to spelling), which the analyzers never
// do but the dump tests exercise.
func Build(name string, body *ast.BlockStmt, info *types.Info) *Graph {
	b := &builder{
		info:   info,
		labels: make(map[string]*Block),
	}
	g := &Graph{Name: name}
	b.graph = g
	entry := b.newBlock("entry")
	b.cur = entry
	b.exitBlock = b.newBlock("exit")
	b.epilogue = b.newBlock("defers")
	g.exit = b.exitBlock
	g.epilogue = b.epilogue
	b.stmt(body)
	if b.cur != nil {
		// Fall off the end of the body: an implicit return.
		b.edge(b.cur, b.epilogue)
	}
	for _, pg := range b.gotos {
		if target := b.labels[pg.label]; target != nil {
			b.edge(pg.from, target)
		}
	}
	// Deferred calls replay in reverse registration order on the way out.
	for i := len(b.defers) - 1; i >= 0; i-- {
		b.epilogue.add(b.defers[i].Call)
	}
	b.edge(b.epilogue, b.exitBlock)
	markLive(entry)
	return g
}

type pendingGoto struct {
	from  *Block
	label string
}

// frame is one enclosing breakable/continuable construct.
type frame struct {
	label      string // loop/switch label, "" if none
	breakTo    *Block
	continueTo *Block // nil for switch/select
}

type builder struct {
	info      *types.Info
	graph     *Graph
	cur       *Block // nil after a terminating statement
	exitBlock *Block
	epilogue  *Block
	frames    []frame
	labels    map[string]*Block
	gotos     []pendingGoto
	defers    []*ast.DeferStmt
	// pendingLabel transfers a label from a LabeledStmt to the loop or
	// switch frame it labels.
	pendingLabel string
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.graph.Blocks), Kind: kind}
	b.graph.Blocks = append(b.graph.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// current returns the block statements accumulate into, materialising an
// unreachable block after a jump so dead code still parses into the graph.
func (b *builder) current() *Block {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	return b.cur
}

// takeLabel consumes the label a LabeledStmt deposited for the construct
// being built.
func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// findFrame resolves a break/continue target: bare jumps bind the innermost
// matching frame, labeled jumps the frame carrying the label.
func (b *builder) findFrame(label string, needContinue bool) *frame {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := &b.frames[i]
		if needContinue && f.continueTo == nil {
			continue
		}
		if label == "" || f.label == label {
			return f
		}
	}
	return nil
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, st := range s.List {
			b.stmt(st)
		}

	case *ast.LabeledStmt:
		lb := b.newBlock("label." + s.Label.Name)
		if b.cur != nil {
			b.edge(b.cur, lb)
		}
		b.cur = lb
		b.labels[s.Label.Name] = lb
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		cond := b.current()
		cond.add(s.Cond)
		then := b.newBlock("if.then")
		b.edge(cond, then)
		b.cur = then
		b.stmt(s.Body)
		thenEnd := b.cur
		var elseEnd *Block
		hasElse := s.Else != nil
		if hasElse {
			els := b.newBlock("if.else")
			b.edge(cond, els)
			b.cur = els
			b.stmt(s.Else)
			elseEnd = b.cur
		}
		join := b.newBlock("if.join")
		if !hasElse {
			b.edge(cond, join)
		}
		if thenEnd != nil {
			b.edge(thenEnd, join)
		}
		if elseEnd != nil {
			b.edge(elseEnd, join)
		}
		b.cur = join

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock("for.head")
		if b.cur != nil {
			b.edge(b.cur, head)
		}
		if s.Cond != nil {
			head.add(s.Cond)
		}
		done := b.newBlock("for.done")
		if s.Cond != nil {
			b.edge(head, done)
		}
		continueTo := head
		var post *Block
		if s.Post != nil {
			post = b.newBlock("for.post")
			post.add(s.Post)
			b.edge(post, head)
			continueTo = post
		}
		body := b.newBlock("for.body")
		b.edge(head, body)
		b.frames = append(b.frames, frame{label: label, breakTo: done, continueTo: continueTo})
		b.cur = body
		b.stmt(s.Body)
		if b.cur != nil {
			b.edge(b.cur, continueTo)
		}
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = done

	case *ast.RangeStmt:
		label := b.takeLabel()
		src := b.current()
		src.add(s.X)
		head := b.newBlock("range.head")
		b.edge(src, head)
		// The whole RangeStmt marks the head as the per-iteration bind (and,
		// for a channel range, the receive). Walkers must not descend into
		// its X (already evaluated in the predecessor) or Body (its own
		// blocks) — see WalkNode.
		head.add(s)
		done := b.newBlock("range.done")
		b.edge(head, done)
		body := b.newBlock("range.body")
		b.edge(head, body)
		b.frames = append(b.frames, frame{label: label, breakTo: done, continueTo: head})
		b.cur = body
		b.stmt(s.Body)
		if b.cur != nil {
			b.edge(b.cur, head)
		}
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = done

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		tag := b.current()
		if s.Tag != nil {
			tag.add(s.Tag)
		}
		b.caseClauses(label, tag, s.Body, func(cc *ast.CaseClause, blk *Block) {
			for _, e := range cc.List {
				blk.add(e)
			}
		})

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		tag := b.current()
		tag.add(s.Assign)
		b.caseClauses(label, tag, s.Body, func(cc *ast.CaseClause, blk *Block) {})

	case *ast.SelectStmt:
		label := b.takeLabel()
		sel := b.current()
		done := b.newBlock("select.done")
		b.frames = append(b.frames, frame{label: label, breakTo: done})
		for _, cl := range s.Body.List {
			cc := cl.(*ast.CommClause)
			kind := "select.arm"
			if cc.Comm == nil {
				kind = "select.default"
			}
			arm := b.newBlock(kind)
			b.edge(sel, arm)
			if cc.Comm != nil {
				// The send/recv happens only on the chosen arm.
				arm.add(cc.Comm)
			}
			b.cur = arm
			for _, st := range cc.Body {
				b.stmt(st)
			}
			if b.cur != nil {
				b.edge(b.cur, done)
			}
		}
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = done

	case *ast.BranchStmt:
		cur := b.current()
		cur.add(s)
		switch s.Tok {
		case token.BREAK:
			label := ""
			if s.Label != nil {
				label = s.Label.Name
			}
			if f := b.findFrame(label, false); f != nil {
				b.edge(cur, f.breakTo)
			}
			b.cur = nil
		case token.CONTINUE:
			label := ""
			if s.Label != nil {
				label = s.Label.Name
			}
			if f := b.findFrame(label, true); f != nil {
				b.edge(cur, f.continueTo)
			}
			b.cur = nil
		case token.GOTO:
			b.gotos = append(b.gotos, pendingGoto{from: cur, label: s.Label.Name})
			b.cur = nil
		case token.FALLTHROUGH:
			// Consumed by caseClauses; reaching here means a stray
			// fallthrough the type checker would have rejected.
		}

	case *ast.ReturnStmt:
		cur := b.current()
		cur.add(s)
		b.edge(cur, b.epilogue)
		b.cur = nil

	case *ast.DeferStmt:
		// Registration (argument evaluation) happens here; the call itself
		// replays in the epilogue.
		b.current().add(s)
		b.defers = append(b.defers, s)

	default:
		cur := b.current()
		cur.add(s)
		switch terminatorKind(b.info, s) {
		case termPanic:
			b.edge(cur, b.epilogue)
			b.cur = nil
		case termExit:
			// os.Exit: the process dies, defers do not run, no successor.
			b.cur = nil
		}
	}
}

// caseClauses builds the shared switch/type-switch shape: the tag block
// branches to every clause (and to done when there is no default), clause
// bodies flow to done, and a trailing fallthrough edges into the next
// clause's body instead.
func (b *builder) caseClauses(label string, tag *Block, body *ast.BlockStmt, addExprs func(*ast.CaseClause, *Block)) {
	done := b.newBlock("switch.done")
	b.frames = append(b.frames, frame{label: label, breakTo: done})
	var clauses []*ast.CaseClause
	var blocks []*Block
	hasDefault := false
	for _, cl := range body.List {
		cc := cl.(*ast.CaseClause)
		kind := "case"
		if cc.List == nil {
			kind = "case.default"
			hasDefault = true
		}
		blk := b.newBlock(kind)
		b.edge(tag, blk)
		addExprs(cc, blk)
		clauses = append(clauses, cc)
		blocks = append(blocks, blk)
	}
	if !hasDefault {
		b.edge(tag, done)
	}
	for i, cc := range clauses {
		b.cur = blocks[i]
		fallsThrough := false
		for _, st := range cc.Body {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
				continue
			}
			b.stmt(st)
		}
		if b.cur != nil {
			if fallsThrough && i+1 < len(blocks) {
				b.edge(b.cur, blocks[i+1])
			} else {
				b.edge(b.cur, done)
			}
		}
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = done
}

type terminator int

const (
	termNone terminator = iota
	termPanic
	termExit
)

// terminatorKind classifies a statement that unconditionally leaves the
// function: a panic(...) expression statement, or an os.Exit call.
func terminatorKind(info *types.Info, s ast.Stmt) terminator {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return termNone
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return termNone
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fun.Name != "panic" {
			return termNone
		}
		if info != nil {
			if _, builtin := info.Uses[fun].(*types.Builtin); !builtin {
				return termNone
			}
		}
		return termPanic
	case *ast.SelectorExpr:
		if fun.Sel.Name != "Exit" {
			return termNone
		}
		if info != nil {
			obj, ok := info.Uses[fun.Sel].(*types.Func)
			if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "os" {
				return termNone
			}
			return termExit
		}
		if id, ok := fun.X.(*ast.Ident); ok && id.Name == "os" {
			return termExit
		}
	}
	return termNone
}

func markLive(entry *Block) {
	var walk func(b *Block)
	walk = func(b *Block) {
		if b.Live {
			return
		}
		b.Live = true
		for _, s := range b.Succs {
			walk(s)
		}
	}
	walk(entry)
}
