package analysis

import (
	"go/ast"
	"go/types"
)

// LockBalance verifies that every sync.Mutex / sync.RWMutex acquire is
// balanced by a release on every path out of the function: an early return
// that skips the unlock, a panic with no deferred unlock, a second Lock
// while the mutex is definitely held, an Unlock with the mutex definitely
// not held, and a release on the side of an RWMutex the function never
// acquired are all flagged. It is the mutex instance of the pairing core
// (pairing.go): deferred unlocks are releases in the CFG's defers epilogue,
// so the canonical lock-then-defer pattern (and unlocks inside deferred
// closures) is legal on every path including panics. TryLock/TryRLock make
// a mutex's state path-correlated with the call's result, which an
// intraprocedural lattice cannot track — those mutexes are left alone
// entirely.
var LockBalance = &Analyzer{
	Name: "lockbalance",
	Doc:  "mutex Lock/Unlock must balance on every path out of the function",
	Run:  runLockBalance,
}

// lockSide identifies one tracked mutex inside one function by the spelling
// of its receiver path; the read side of an RWMutex balances independently
// of the write side.
type lockSide struct {
	recv string // receiver spelling, e.g. "s.mu"
	read bool
}

func (l lockSide) acquireVerb() string {
	if l.read {
		return "RLock"
	}
	return "Lock"
}

func (l lockSide) releaseVerb() string {
	if l.read {
		return "RUnlock"
	}
	return "Unlock"
}

// lockUnstableRecv reports whether the receiver path contains an index or a
// call: two occurrences of the same spelling may then denote different
// mutexes, so the spelling is not a sound state key.
func lockUnstableRecv(recv ast.Expr) bool {
	unstable := false
	ast.Inspect(recv, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.CallExpr, *ast.IndexExpr:
			unstable = true
		}
		return !unstable
	})
	return unstable
}

func runLockBalance(pass *Pass) error {
	for _, fn := range flowFuncs(pass) {
		lockBalanceFunc(pass, fn)
	}
	return nil
}

func lockBalanceFunc(pass *Pass, fn flowFunc) {
	f := newPairFlow(pass, fn)
	var sides []lockSide // by key index
	keyOf := make(map[lockSide]int)
	// tainted keys are never reported: TryLock path-correlation, an
	// unstable receiver, or a mismatched pair already reported once.
	tainted := make(map[int]bool)

	f.scan(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// Only selector calls of sync-package methods count (sync.Mutex,
		// sync.RWMutex, sync.Locker): method values passed around are out
		// of scope for flow analysis.
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		method, ok := pass.Info.Uses[sel.Sel].(*types.Func)
		if !ok || method.Pkg() == nil || method.Pkg().Path() != "sync" {
			return true
		}
		side := lockSide{recv: types.ExprString(sel.X)}
		op, try := pairRelease, false
		switch method.Name() {
		case "Lock":
			op = pairAcquire
		case "Unlock":
		case "RLock":
			op, side.read = pairAcquire, true
		case "RUnlock":
			side.read = true
		case "TryLock":
			try = true
		case "TryRLock":
			try, side.read = true, true
		default:
			return true
		}
		key, seen := keyOf[side]
		if !seen {
			// A plain identifier declared inside the analyzed body starts
			// definitely unlocked. Fields, parameters and captures start
			// unknown — the caller may hold them (caller-holds-lock helpers
			// are a legitimate pattern).
			start := pairIdle | pairHeld
			if _, plain := sel.X.(*ast.Ident); plain && declaredWithin(baseIdentObj(pass, sel.X), fn.Body.Pos(), fn.Body.End()) {
				start = pairIdle
			}
			key = f.addKey(start)
			keyOf[side] = key
			sides = append(sides, side)
		}
		if try || lockUnstableRecv(sel.X) {
			tainted[key] = true
		}
		if !try {
			f.emit(op, key, call.Pos())
		}
		return true
	})

	// Releasing the side of an RWMutex this function never acquired, while
	// it did acquire the other side, is a mismatched pair (RLock + Unlock is
	// a runtime fatal error). The two sides are independent keys, so the
	// flow cannot see it: with an unknown start state either release is
	// legal on its own.
	for _, evs := range f.events {
		for _, ev := range evs {
			if ev.op != pairRelease || tainted[ev.key] || f.keys[ev.key].acquired.IsValid() {
				continue
			}
			side := sides[ev.key]
			other := lockSide{recv: side.recv, read: !side.read}
			if o, ok := keyOf[other]; ok && f.keys[o].acquired.IsValid() && !tainted[o] {
				pass.Reportf(ev.pos, "%s.%s is a mismatched pair with %s.%s, the only side of the RWMutex this function acquires; release it with %s",
					side.recv, side.releaseVerb(), side.recv, other.acquireVerb(), other.releaseVerb())
				tainted[ev.key], tainted[o] = true, true
			}
		}
	}

	f.check(func(ev pairEvent, st pairStatus) {
		if tainted[ev.key] {
			return
		}
		l := sides[ev.key]
		// Exits are flagged only when the mutex is held on every path
		// reaching them: a may-held exit is what correlated branches
		// (if x { Lock } ... if x { Unlock }) look like.
		held := st == pairHeld
		switch ev.op {
		case pairAcquire:
			if held && !l.read {
				pass.Reportf(ev.pos, "%s.Lock is called with %s already locked on every path to this point; Go mutexes are not reentrant, this deadlocks", l.recv, l.recv)
			}
		case pairRelease:
			if st&pairHeld == 0 {
				pass.Reportf(ev.pos, "%s.%s releases a lock that is not held on any path to this point", l.recv, l.releaseVerb())
			}
		case pairReturn:
			if held {
				pass.Reportf(ev.pos, "return leaves %s locked; %s before returning or defer the unlock right after the %s", l.recv, l.releaseVerb(), l.acquireVerb())
			}
		case pairPanic:
			if held {
				pass.Reportf(ev.pos, "panic leaves %s locked: only a deferred %s releases it on panic paths", l.recv, l.releaseVerb())
			}
		case pairFallOff:
			if held {
				pass.Reportf(ev.pos, "%s is locked here but still held when %s falls off the end of the function; add the missing %s", l.recv, fn.Name, l.releaseVerb())
			}
		}
	})
}
