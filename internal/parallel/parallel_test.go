package parallel

import (
	"runtime"
	"sync"
	"testing"
)

// withProcs runs fn with GOMAXPROCS pinned to n, restoring the previous
// value afterwards. It is how the suite exercises the pooled path on hosts
// where GOMAXPROCS would otherwise be 1.
func withProcs(t *testing.T, n int, fn func()) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

func TestForCoversRangeExactlyOnce(t *testing.T) {
	withProcs(t, 4, func() {
		for _, tc := range []struct{ n, grain int }{
			{1, 1}, {7, 1}, {7, 3}, {64, 8}, {100, 7}, {100, 1000},
		} {
			counts := make([]int, tc.n)
			For(tc.n, tc.grain, func(lo, hi int) {
				if lo < 0 || hi > tc.n || lo >= hi {
					t.Errorf("n=%d grain=%d: bad chunk [%d,%d)", tc.n, tc.grain, lo, hi)
					return
				}
				for i := lo; i < hi; i++ {
					counts[i]++ // chunks are disjoint, so this never races
				}
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("n=%d grain=%d: index %d visited %d times", tc.n, tc.grain, i, c)
				}
			}
		}
	})
}

func TestForEmptyAndSerialPin(t *testing.T) {
	calls := 0
	For(0, 4, func(lo, hi int) { calls++ })
	For(-3, 4, func(lo, hi int) { calls++ })
	if calls != 0 {
		t.Fatalf("For on empty range invoked fn %d times", calls)
	}
	prev := SetSerial(true)
	defer SetSerial(prev)
	if !SerialPinned() {
		t.Fatal("SetSerial(true) did not pin")
	}
	withProcs(t, 4, func() {
		ranges := [][2]int{}
		For(100, 10, func(lo, hi int) { ranges = append(ranges, [2]int{lo, hi}) })
		if len(ranges) != 1 || ranges[0] != [2]int{0, 100} {
			t.Fatalf("pinned serial For split the range: %v", ranges)
		}
	})
}

func TestForNestedDoesNotDeadlock(t *testing.T) {
	withProcs(t, 4, func() {
		const outer, inner = 8, 32
		sums := make([]int, outer)
		For(outer, 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				vals := make([]int, inner)
				For(inner, 4, func(ilo, ihi int) {
					for j := ilo; j < ihi; j++ {
						vals[j] = j
					}
				})
				total := 0
				for _, v := range vals {
					total += v
				}
				sums[i] = total
			}
		})
		want := inner * (inner - 1) / 2
		for i, s := range sums {
			if s != want {
				t.Fatalf("outer %d: sum %d, want %d", i, s, want)
			}
		}
	})
}

func TestForConcurrentCallers(t *testing.T) {
	withProcs(t, 4, func() {
		const callers = 8
		var wg sync.WaitGroup
		results := make([]int64, callers)
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				partials := make([]int64, 256)
				For(256, 16, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						partials[i] = int64(i * i)
					}
				})
				var sum int64
				for _, p := range partials {
					sum += p
				}
				results[c] = sum
			}(c)
		}
		wg.Wait()
		var want int64
		for i := 0; i < 256; i++ {
			want += int64(i * i)
		}
		for c, got := range results {
			if got != want {
				t.Fatalf("caller %d: sum %d, want %d", c, got, want)
			}
		}
	})
}

func TestGrain(t *testing.T) {
	if g := Grain(1000, 1); g != 1000 {
		t.Fatalf("cheap units should clamp to n: got %d", g)
	}
	if g := Grain(1000, 1<<20); g != 1 {
		t.Fatalf("expensive units should give grain 1: got %d", g)
	}
	if g := Grain(1000, 0); g != 1000 {
		t.Fatalf("unitCost 0 must be treated as 1: got %d", g)
	}
	if g := Grain(1_000_000, 64); g != (32<<10)/64 {
		t.Fatalf("mid-cost grain: got %d, want %d", g, (32<<10)/64)
	}
}

func TestWorkersGrowLazily(t *testing.T) {
	withProcs(t, 4, func() {
		For(64, 1, func(lo, hi int) {})
		if Workers() < 1 {
			t.Fatalf("pool did not spawn any workers after a chunked For (have %d)", Workers())
		}
	})
}

// A warm Job fans out without allocating: its counter, WaitGroup and the
// func handed to pool workers are its own fields, bound on first use. The
// package For, which builds a Job per fan-out, is the control.
func TestJobFanOutAllocatesNothing(t *testing.T) {
	withProcs(t, 4, func() {
		var sums [64]int
		fn := func(lo, hi int) {
			for i := lo; i < hi; i++ {
				sums[i] += i
			}
		}
		// Counted by hand: testing.AllocsPerRun pins GOMAXPROCS to 1, and
		// at 1 every For runs inline.
		mallocs := func(f func()) uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range 100 {
				f()
			}
			runtime.ReadMemStats(&after)
			return after.Mallocs - before.Mallocs
		}
		// The count is process-wide, so a stray runtime allocation may
		// land in the window: allow a few, far below one per call.
		var j Job
		j.For(64, 1, fn)
		if n := mallocs(func() { j.For(64, 1, fn) }); n > 10 {
			t.Errorf("%d allocations over 100 fan-outs of a warm Job, want 0", n)
		}
		if n := mallocs(func() { For(64, 1, fn) }); n < 100 {
			t.Errorf("%d allocations over 100 fan-outs of the package For, want one Job each at least", n)
		}
		for i, s := range sums {
			if s != 201*i {
				t.Fatalf("element %d summed to %d after 201 passes, want %d", i, s, 201*i)
			}
		}
	})
}
