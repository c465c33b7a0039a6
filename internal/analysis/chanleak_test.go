package analysis

import "testing"

func TestChanLeakNeverReceived(t *testing.T) {
	const src = `package cl

func leak(x int) int {
	ch := make(chan int)
	go func() {
		ch <- x * 2
	}()
	return x
}
`
	checkAnalyzer(t, ChanLeak, "example.com/cl", src, []want{
		{line: 5, message: "goroutine blocks forever: it sends on ch"},
	})
}

func TestChanLeakPathSkipsReceive(t *testing.T) {
	const src = `package cl

func sum(xs []int) (int, bool) {
	ch := make(chan int)
	go func() {
		s := 0
		for _, x := range xs {
			s += x
		}
		ch <- s
	}()
	if len(xs) == 0 {
		return 0, false
	}
	return <-ch, true
}
`
	checkAnalyzer(t, ChanLeak, "example.com/cl", src, []want{
		{line: 5, message: "some path through sum returns without receiving from it"},
	})
}

func TestChanLeakNeverSent(t *testing.T) {
	const src = `package cl

func wait(hook func(int)) {
	ch := make(chan int)
	go func() {
		hook(<-ch)
	}()
}
`
	checkAnalyzer(t, ChanLeak, "example.com/cl", src, []want{
		{line: 5, message: "goroutine blocks forever: it receives from ch"},
	})
}

// Legal patterns: drained result channels (directly, via range-and-close
// inversion, or in a deferred closure), escaping channels, buffered
// channels, goroutine pairs coordinating with each other, and select-based
// sends that can take another arm.
func TestChanLeakCleanPatterns(t *testing.T) {
	const src = `package cl

func drained(x int) int {
	ch := make(chan int)
	go func() { ch <- x }()
	return <-ch
}

func escapes(x int) chan int {
	ch := make(chan int)
	go func() { ch <- x }()
	return ch
}

func buffered(x int) {
	ch := make(chan int, 1)
	go func() { ch <- x }()
}

func closedForRecv(wake func()) {
	ch := make(chan struct{})
	go func() {
		<-ch
		wake()
	}()
	close(ch)
}

func pair(x int, sink func(int)) {
	ch := make(chan int)
	go func() { ch <- x }()
	go func() { sink(<-ch) }()
}

func selectSend(x int, quit func() bool) {
	ch := make(chan int)
	go func() {
		select {
		case ch <- x:
		default:
		}
	}()
	if quit() {
		return
	}
	<-ch
}

func deferredDrain(x int) bool {
	ch := make(chan int)
	go func() { ch <- x }()
	defer func() { <-ch }()
	return x > 0
}

func bothBranchesDrain(x int) int {
	ch := make(chan int)
	go func() { ch <- x }()
	if x > 0 {
		return <-ch
	}
	v := <-ch
	return -v
}

// A channel made inside a spawned goroutine's body is drained there; the
// enclosing function must not answer for it.
func nested(x int) {
	go func() {
		ch := make(chan int)
		go func() { ch <- x }()
		<-ch
	}()
}
`
	checkAnalyzer(t, ChanLeak, "example.com/cl", src, nil)
}

func TestChanLeakAllow(t *testing.T) {
	const src = `package cl

func fireAndForget(x int, sink chan int) {
	ch := make(chan int)
	//cadmc:allow chanleak -- prototype: receiver arrives in a later patch
	go func() {
		ch <- x
	}()
	_ = sink
}
`
	checkAnalyzer(t, ChanLeak, "example.com/cl", src, nil)
}
