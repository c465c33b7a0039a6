package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"

	"cadmc/internal/analysis/cfg"
)

// pairFlow is the one held-resource dataflow behind arenapair and
// lockbalance: a forward may-analysis, per function, over every tracked
// key at once, of "acquired and not yet handed back". The two analyzers
// differ only in their matchers — what counts as a key, an acquire, a
// release or a use, and which statuses are worth a finding. Everything
// path-shaped is here and exists once: event order inside a block, the
// lattice, the fixpoint, and what an exit is (a return, an explicit panic,
// or falling off the end, each exempt for keys the defers epilogue
// releases).
type pairFlow struct {
	pass *Pass
	g    *cfg.Graph
	keys []pairKey
	// events holds each block's state-relevant points in evaluation order,
	// indexed by Block.Index.
	events [][]pairEvent
	// cur is the block scan is walking; emit records into it.
	cur *cfg.Block
}

// pairKey is what the core knows about one tracked resource; matchers keep
// anything else (receiver spelling, variable object) in a parallel slice.
type pairKey struct {
	// start is the status on entry to the function.
	start pairStatus
	// acquired is the first acquire, the anchor of fall-off-the-end
	// findings (there is no statement to point at).
	acquired token.Pos
	// deferReleased is set when the defers epilogue releases the key: every
	// return, panic and fall-off edge crosses the epilogue, so no exit can
	// leak it.
	deferReleased bool
}

// pairStatus is one key's lattice value: the may-set of statuses it can have
// over the paths that reach a point; zero means no path does.
type pairStatus uint8

const (
	pairIdle     pairStatus = 1 << iota // not acquired by this function
	pairHeld                            // acquired, not yet released
	pairReleased                        // handed back
)

type pairOp uint8

const (
	pairAcquire pairOp = iota + 1
	pairRelease
	pairUse
	// The exits. The replay hands them to the matcher once per key that is
	// not deferReleased; fall-off events are positioned at the key's first
	// acquire.
	pairReturn
	pairPanic
	pairFallOff
)

type pairEvent struct {
	op  pairOp
	pos token.Pos
	key int // index into pairFlow.keys; unused by recorded exits
}

// newPairFlow prepares the flow over one function; the CFG comes from the
// per-package cache the flow-sensitive analyzers share.
func newPairFlow(pass *Pass, fn flowFunc) *pairFlow {
	g := pass.CFG(fn.Name, fn.Body)
	return &pairFlow{pass: pass, g: g, events: make([][]pairEvent, len(g.Blocks))}
}

// addKey registers a tracked resource and returns its index.
func (f *pairFlow) addKey(start pairStatus) int {
	f.keys = append(f.keys, pairKey{start: start})
	return len(f.keys) - 1
}

// scan extracts the events. visit sees every node of every block in
// evaluation order under cfg.WalkNode's attribution rules (function
// literals opaque, deferred calls replayed in the epilogue) and records
// acquires, releases and uses through emit; its result says whether to
// descend. Returns and explicit panics are recorded here, after the
// events of the statement's own operands.
func (f *pairFlow) scan(visit func(ast.Node) bool) {
	for _, blk := range f.g.Blocks {
		f.cur = blk
		for _, node := range blk.Nodes {
			cfg.WalkNode(node, blk == f.g.Epilogue(), visit)
			switch s := node.(type) {
			case *ast.ReturnStmt:
				f.emit(pairReturn, 0, s.Pos())
			case *ast.ExprStmt:
				if isPanicCall(f.pass, s.X) {
					f.emit(pairPanic, 0, s.Pos())
				}
			}
		}
	}
}

// emit records one event in the block being scanned.
func (f *pairFlow) emit(op pairOp, key int, pos token.Pos) {
	f.events[f.cur.Index] = append(f.events[f.cur.Index], pairEvent{op: op, pos: pos, key: key})
	switch {
	case op == pairAcquire && !f.keys[key].acquired.IsValid():
		f.keys[key].acquired = pos
	case op == pairRelease && f.cur == f.g.Epilogue():
		f.keys[key].deferReleased = true
	}
}

// step applies one event to a state in place. A fresh acquire kills
// whatever the key was before (loop reuse).
func (ev pairEvent) step(st []pairStatus) {
	switch ev.op {
	case pairAcquire:
		st[ev.key] = pairHeld
	case pairRelease:
		st[ev.key] = pairReleased
	}
}

// check solves the flow and replays every reachable block, calling report
// with each event and the key's status just before it. The same step drives
// the fixpoint and the replay, so the two cannot drift apart. An exit event
// is reported once per key the epilogue does not release.
func (f *pairFlow) check(report func(ev pairEvent, st pairStatus)) {
	if len(f.keys) == 0 {
		return
	}
	in := cfg.Solve(f.g, cfg.Problem[[]pairStatus]{
		Boundary: func() []pairStatus {
			st := make([]pairStatus, len(f.keys))
			for i, k := range f.keys {
				st[i] = k.start
			}
			return st
		},
		Init: func() []pairStatus { return nil }, // nil = unreached
		Transfer: func(b *cfg.Block, st []pairStatus) []pairStatus {
			if st == nil {
				return nil
			}
			out := slices.Clone(st)
			for _, ev := range f.events[b.Index] {
				ev.step(out)
			}
			return out
		},
		Merge: func(a, b []pairStatus) []pairStatus {
			if a == nil {
				return b
			}
			if b == nil {
				return a
			}
			out := slices.Clone(a)
			for i := range out {
				out[i] |= b[i]
			}
			return out
		},
		Equal: slices.Equal[[]pairStatus],
	})

	exit := func(op pairOp, pos token.Pos, st []pairStatus) {
		for i, k := range f.keys {
			if k.deferReleased {
				continue
			}
			if op == pairFallOff {
				pos = k.acquired
			}
			report(pairEvent{op: op, pos: pos, key: i}, st[i])
		}
	}
	for _, blk := range f.g.Blocks {
		if in[blk.Index] == nil {
			continue // unreachable
		}
		st := slices.Clone(in[blk.Index])
		fallsOff := blk != f.g.Epilogue() && slices.Contains(blk.Succs, f.g.Epilogue())
		for _, ev := range f.events[blk.Index] {
			if ev.op == pairReturn || ev.op == pairPanic {
				exit(ev.op, ev.pos, st)
				fallsOff = false
				continue
			}
			report(ev, st[ev.key])
			ev.step(st)
		}
		// A block flowing into the epilogue without a return or panic is the
		// implicit return at the end of the body.
		if fallsOff {
			exit(pairFallOff, token.NoPos, st)
		}
	}
}

// isPanicCall reports whether e is a call of the predeclared panic.
func isPanicCall(pass *Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	_, builtin := pass.Info.Uses[id].(*types.Builtin)
	return builtin
}
