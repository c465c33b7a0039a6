package main

import (
	"sort"
	"time"

	"cadmc/internal/telemetry"
)

// minBeyond is how many samples must lie beyond a reported percentile for it
// to be a measurement of the tail and not of one or two outliers.
const minBeyond = 10

// tailQuantile is the quantile reported under the name p95: 0.95 when n
// samples support it, otherwise the highest quantile with minBeyond samples
// beyond it (0.5 at the very least, for smoke-sized runs).
func tailQuantile(n int) float64 {
	if n <= 0 {
		return 0.5
	}
	q := 1 - float64(minBeyond)/float64(n)
	if q > 0.95 {
		return 0.95
	}
	if q < 0.5 {
		return 0.5
	}
	return q
}

// quantile is telemetry.Quantile (the repo's one quantile implementation)
// over an unsorted sample set, which it leaves as it was.
func quantile(xs []float64, q float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return telemetry.Quantile(sorted, q)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func maxOf(xs []float64) float64 { return quantile(xs, 1) }

// ratio is a/b, 0 when b is 0: a per-layer ratio whose base never ran.
func ratio(a, b float64) float64 {
	if b > 0 || b < 0 {
		return a / b
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timeMedian calls fn reps times after one untimed call and returns the
// median duration of one operation. fn reports how many operations it
// performed so tight loops can amortise the clock reads.
func timeMedian(reps int, fn func() (ops int, err error)) (time.Duration, error) {
	if _, err := fn(); err != nil {
		return 0, err
	}
	per := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		ops, err := fn()
		if err != nil {
			return 0, err
		}
		per = append(per, float64(time.Since(t0))/float64(ops))
	}
	return time.Duration(median(per)), nil
}

// once is one call of fn as timeMedian wants it; times is n calls.
func once(fn func() error) func() (int, error) {
	return func() (int, error) { return 1, fn() }
}

func times(n int, fn func(i int) error) func() (int, error) {
	return func() (int, error) {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return 0, err
			}
		}
		return n, nil
	}
}

// sink takes the result of a micro-loop's calls so the compiler cannot drop
// them.
var sink float64
