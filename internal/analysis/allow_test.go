package analysis

import "testing"

// A directive above a multi-line statement must suppress the finding
// wherever the analyzer anchors it. Here lockbalance anchors the
// return-leaves-locked finding on the return line — three lines into the go
// statement — which exact-line matching would miss: the directive covers
// only the `go` line and the finding escapes. collectAllows stretches
// directives over the full extent of simple statements.
func TestAllowCoversMultiLineStatement(t *testing.T) {
	const src = `package lb

import "sync"

type S struct {
	mu sync.Mutex
	n  int
}

func (s *S) handoff(x bool, done chan struct{}) {
	//cadmc:allow lockbalance -- the receiver of done unlocks on this branch
	go func() {
		s.mu.Lock()
		if x {
			close(done)
			return
		}
		s.n++
		s.mu.Unlock()
	}()
}
`
	checkAnalyzer(t, LockBalance, "example.com/lb", src, nil)
}

// Stretching stops at block-structured statements: a directive above an
// `if` annotates the header line only, so a finding anchored inside its
// body still fires. Suppressions stay line-scoped where lines exist.
func TestAllowDoesNotBlanketBlocks(t *testing.T) {
	const src = `package lb

import "sync"

type S struct {
	mu sync.Mutex
	n  int
}

func (s *S) bad(x bool) int {
	s.mu.Lock()
	//cadmc:allow lockbalance -- anchored to the if header, not its body
	if x {
		s.n++
		return -1
	}
	s.mu.Unlock()
	return s.n
}
`
	checkAnalyzer(t, LockBalance, "example.com/lb", src, []want{
		{line: 15, message: "return leaves s.mu locked"},
	})
}
