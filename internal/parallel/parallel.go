// Package parallel is the repo's deterministic compute runtime: a
// lazily-grown shared worker pool behind a chunked For primitive, plus Grow,
// which the callers' own workspaces reuse their buffers through.
//
// Determinism contract: For(n, grain, fn) partitions [0, n) into contiguous
// chunks and hands each chunk to exactly one executor (the caller or a pool
// worker). Every output element is produced by one fn(lo, hi) call running
// the same per-element code — and therefore the same floating-point
// summation order — as the serial loop. Chunk boundaries and worker count
// can change which goroutine computes an element, never its value, so
// results are bit-exact for any GOMAXPROCS, including 1. The determinism
// suites in internal/tensor, internal/nn and internal/report assert this
// property end to end.
//
// Nesting is safe by construction: helpers are enlisted only when a pool
// worker is idle at call time (an unbuffered hand-off), so a For issued from
// inside a pool worker simply runs inline when the pool is saturated instead
// of deadlocking on its own queue.
package parallel

import (
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// serialForced pins every For call to the caller's goroutine. It is set by
// SetSerial (tests, benches) or the CADMC_SERIAL=1 environment variable
// (operational pinning; see README "Running on all cores").
var serialForced atomic.Bool

func init() {
	if os.Getenv("CADMC_SERIAL") == "1" {
		serialForced.Store(true)
	}
}

// SetSerial pins (true) or unpins (false) serial execution and returns the
// previous setting. Serial mode runs every For inline on the caller; results
// are identical either way — this is a scheduling knob, not a semantic one.
func SetSerial(on bool) bool { return serialForced.Swap(on) }

// SerialPinned reports whether serial execution is currently pinned.
func SerialPinned() bool { return serialForced.Load() }

var (
	poolMu sync.Mutex
	// spawned counts live pool workers; the pool grows lazily toward
	// GOMAXPROCS(0)-1 as For calls demand helpers and never shrinks (parked
	// workers cost one blocked goroutine each).
	spawned int
	// tasks is the unbuffered hand-off to parked workers. Unbuffered is
	// load-bearing: a send succeeds only if a worker is idle right now,
	// which is what makes nested For calls deadlock-free.
	tasks chan func()
)

// ensureWorkers grows the pool to at least want workers.
func ensureWorkers(want int) {
	poolMu.Lock()
	defer poolMu.Unlock()
	if tasks == nil {
		tasks = make(chan func())
	}
	for spawned < want {
		spawned++
		// Worker lifetime is bound to the tasks channel: it parks in the
		// receive until the process exits. Draining the channel is the
		// pool's structured-concurrency contract (recognised by the
		// nakedgo analyzer as a tracked launch).
		go func() {
			for f := range tasks {
				f()
			}
		}()
	}
}

// Workers returns the number of pool workers currently spawned. It is a
// diagnostic (benchmarks record it); For sizes itself from GOMAXPROCS, not
// from this value.
func Workers() int {
	poolMu.Lock()
	defer poolMu.Unlock()
	return spawned
}

// For runs fn over the index range [0, n) split into contiguous chunks of
// size grain (the final chunk may be short). fn(lo, hi) must treat
// [lo, hi) as its exclusive property: distinct chunks may run concurrently
// on pool workers, and fn must not write outside its chunk's output rows.
//
// The caller always participates, so For never blocks waiting for a free
// worker, and a panic in fn on the caller's chunk propagates normally.
// When n <= 0 For is a no-op; when serial mode is pinned, GOMAXPROCS is 1,
// or there is a single chunk, fn(0, n) runs inline.
func For(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	forCalls.Add(1)
	if grain < 1 {
		grain = 1
	}
	chunks := (n + grain - 1) / grain
	helpers := runtime.GOMAXPROCS(0) - 1
	if helpers <= 0 || chunks <= 1 || serialForced.Load() {
		forInline.Add(1)
		fn(0, n)
		return
	}
	if helpers > chunks-1 {
		helpers = chunks - 1
	}
	ensureWorkers(helpers)
	// Phase timer: two wall reads bracketing the fan-out, amortised over the
	// whole chunked pass — this package is not on the injected-clock seam, so
	// real time is the right thing to measure here.
	forChunks.Add(int64(chunks))
	phaseStart := time.Now()
	defer func() {
		forBusyNS.Add(time.Since(phaseStart).Nanoseconds())
	}()

	// Dynamic chunk scheduling off a shared counter: executors pull the
	// next unclaimed chunk until none remain. Scheduling order is
	// nondeterministic; chunk contents are not.
	var next atomic.Int64
	body := func() {
		for {
			c := int(next.Add(1)) - 1
			if c >= chunks {
				return
			}
			lo := c * grain
			hi := lo + grain
			if hi > n {
				hi = n
			}
			fn(lo, hi)
		}
	}

	var wg sync.WaitGroup
	help := func() {
		defer wg.Done()
		body()
	}
	enlisted := 0
	for pass := 0; pass < 2; pass++ {
		for enlisted < helpers && trySubmit(help, &wg) {
			enlisted++
		}
		if enlisted > 0 || pass == 1 {
			break
		}
		// Freshly spawned workers may not have parked in the receive yet;
		// give the scheduler one chance to run them before falling back to
		// a fully inline pass. Best-effort only — correctness never
		// depends on enlisting anyone.
		runtime.Gosched()
	}
	forEnlisted.Add(int64(enlisted))
	body()
	wg.Wait()
}

// trySubmit offers f to an idle pool worker without blocking. The WaitGroup
// is incremented before the offer so a worker that grabs f immediately
// cannot race wg.Wait; a failed offer undoes the increment.
func trySubmit(f func(), wg *sync.WaitGroup) bool {
	wg.Add(1)
	select {
	case tasks <- f:
		return true
	default:
		wg.Done()
		return false
	}
}

// Grain returns a chunk size for n work units of roughly unitCost scalar
// operations each, targeting chunks big enough (~32k operations) that the
// per-chunk scheduling cost (one atomic add, one indirect call) disappears
// into the arithmetic. A unitCost of 0 or less is treated as 1.
func Grain(n, unitCost int) int {
	const targetOps = 32 << 10
	if unitCost < 1 {
		unitCost = 1
	}
	g := targetOps / unitCost
	if g < 1 {
		g = 1
	}
	if g > n && n > 0 {
		g = n
	}
	return g
}
