package analysis

import "testing"

func TestLockBalanceEarlyReturn(t *testing.T) {
	const src = `package lb

import "sync"

type S struct {
	mu sync.Mutex
	n  int
}

func (s *S) bad(x bool) int {
	s.mu.Lock()
	if x {
		return -1
	}
	s.mu.Unlock()
	return s.n
}
`
	checkAnalyzer(t, LockBalance, "example.com/lb", src, []want{
		{line: 13, message: "return leaves s.mu locked"},
	})
}

func TestLockBalancePanicPath(t *testing.T) {
	const src = `package lb

import "sync"

type S struct {
	mu sync.Mutex
	n  int
}

func (s *S) bad() {
	s.mu.Lock()
	if s.n > 0 {
		panic("negative count")
	}
	s.mu.Unlock()
}
`
	checkAnalyzer(t, LockBalance, "example.com/lb", src, []want{
		{line: 13, message: "panic leaves s.mu locked"},
	})
}

func TestLockBalanceDoubleLock(t *testing.T) {
	const src = `package lb

import "sync"

func double() {
	var mu sync.Mutex
	mu.Lock()
	mu.Lock()
	mu.Unlock()
}
`
	checkAnalyzer(t, LockBalance, "example.com/lb", src, []want{
		{line: 8, message: "already locked on every path"},
	})
}

func TestLockBalanceUnlockWithoutLock(t *testing.T) {
	const src = `package lb

import "sync"

func loose() {
	var mu sync.Mutex
	mu.Unlock()
}
`
	checkAnalyzer(t, LockBalance, "example.com/lb", src, []want{
		{line: 7, message: "releases a lock that is not held"},
	})
}

func TestLockBalanceReadSide(t *testing.T) {
	const src = `package lb

import "sync"

type R struct {
	rw sync.RWMutex
	n  int
}

func (r *R) read(x bool) int {
	r.rw.RLock()
	if x {
		return 0
	}
	v := r.n
	r.rw.RUnlock()
	return v
}
`
	checkAnalyzer(t, LockBalance, "example.com/lb", src, []want{
		{line: 13, message: "RUnlock before returning"},
	})
}

// The legal patterns: deferred unlock (covers returns and panics), branch
// unlock-then-return, unlock inside a deferred closure, caller-holds-lock
// helpers on a field mutex, and TryLock (path-correlated, left alone).
func TestLockBalanceCleanPatterns(t *testing.T) {
	const src = `package lb

import "sync"

type S struct {
	mu sync.Mutex
	n  int
}

func (s *S) deferred(x bool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if x {
		return -1
	}
	return s.n
}

func (s *S) branches(x bool) int {
	s.mu.Lock()
	if x {
		s.mu.Unlock()
		return -1
	}
	v := s.n
	s.mu.Unlock()
	return v
}

func (s *S) closing() {
	s.mu.Lock()
	defer func() {
		s.n = 0
		s.mu.Unlock()
	}()
	s.n++
}

// kill mutates state the caller already guards; helpers like this must not
// be mistaken for an unlock imbalance.
func (s *S) kill() {
	s.n = 0
}

func (s *S) release() {
	s.mu.Unlock()
}

func try(mu *sync.Mutex) bool {
	if mu.TryLock() {
		defer mu.Unlock()
		return true
	}
	return false
}

// A mutex declared inside a nested literal belongs to that literal, whether
// the literal is spawned or deferred (the epilogue replays the latter).
func nested(n *int) {
	go func() {
		var mu sync.Mutex
		mu.Lock()
		defer mu.Unlock()
		*n++
	}()
	defer func() {
		var mu sync.Mutex
		mu.Lock()
		*n++
		mu.Unlock()
	}()
}
`
	checkAnalyzer(t, LockBalance, "example.com/lb", src, nil)
}

func TestLockBalanceGoroutineBody(t *testing.T) {
	const src = `package lb

import "sync"

type S struct {
	mu sync.Mutex
	n  int
}

func (s *S) spawn(x bool) {
	go func() {
		s.mu.Lock()
		if x {
			return
		}
		s.n++
		s.mu.Unlock()
	}()
}
`
	checkAnalyzer(t, LockBalance, "example.com/lb", src, []want{
		{line: 14, message: "return leaves s.mu locked"},
	})
}

func TestLockBalanceAllow(t *testing.T) {
	const src = `package lb

import "sync"

type S struct {
	mu sync.Mutex
}

func (s *S) handoff(x bool) {
	s.mu.Lock()
	if x {
		//cadmc:allow lockbalance -- lock handed to caller on this branch
		return
	}
	s.mu.Unlock()
}
`
	checkAnalyzer(t, LockBalance, "example.com/lb", src, nil)
}

// Releasing the side of an RWMutex the function never acquired is one
// finding at the release, deferred or inline — not a cascade of held-at-exit
// reports for the side that was acquired. At runtime RLock + Unlock is
// "fatal error: sync: Unlock of unlocked RWMutex".
func TestLockBalanceRWMismatch(t *testing.T) {
	const src = `package lb

import "sync"

type R struct {
	mu sync.RWMutex
	m  map[string]int
}

func (r *R) deferred(k string) (int, bool) {
	r.mu.RLock()
	defer r.mu.Unlock()
	v, ok := r.m[k]
	if !ok {
		return 0, false
	}
	return v, true
}

func (r *R) inline(k string) int {
	r.mu.RLock()
	v := r.m[k]
	r.mu.Unlock()
	return v
}
`
	checkAnalyzer(t, LockBalance, "example.com/lb", src, []want{
		{line: 12, message: "r.mu.Unlock is a mismatched pair with r.mu.RLock"},
		{line: 23, message: "release it with RUnlock"},
	})
}

// The mirror: a write Lock released with RUnlock. A function that takes both
// sides in turn (the read-then-upgrade shape) is legal and stays quiet.
func TestLockBalanceRWMismatchMirror(t *testing.T) {
	const src = `package lb

import "sync"

type R struct {
	mu sync.RWMutex
	m  map[string]int
}

func (r *R) deferred(k string) {
	r.mu.Lock()
	defer r.mu.RUnlock()
	r.m[k]++
}

func (r *R) inline(k string) {
	r.mu.Lock()
	r.m[k]++
	r.mu.RUnlock()
}

func (r *R) upgrade(k string) int {
	r.mu.RLock()
	v, ok := r.m[k]
	r.mu.RUnlock()
	if ok {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m[k] = 1
	return 1
}
`
	checkAnalyzer(t, LockBalance, "example.com/lb", src, []want{
		{line: 12, message: "r.mu.RUnlock is a mismatched pair with r.mu.Lock"},
		{line: 19, message: "release it with Unlock"},
	})
}

// A field mutex locked with the defer deleted and no other release in the
// body is held at every way out. Exempting this shape as a presumed "locked
// accessor" would leave lock-then-defer, the commonest lock site in the
// repo, unguarded against exactly the edit that breaks it.
func TestLockBalanceDeletedDefer(t *testing.T) {
	const src = `package lb

import "sync"

type S struct {
	mu     sync.Mutex
	closed bool
	n      int
}

func (s *S) get(x bool) (int, bool) {
	s.mu.Lock()
	if s.closed {
		return 0, false
	}
	if x {
		return -s.n, true
	}
	return s.n, true
}

func (s *S) bump() {
	s.mu.Lock()
	s.n++
}
`
	checkAnalyzer(t, LockBalance, "example.com/lb", src, []want{
		{line: 14, message: "return leaves s.mu locked"},
		{line: 17, message: "return leaves s.mu locked"},
		{line: 19, message: "return leaves s.mu locked"},
		{line: 23, message: "still held when bump falls off the end"},
	})
}
