package main

import (
	"math"
	"testing"
)

func TestTailQuantile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0.5},   // nothing to report
		{14, 0.5},  // fewer than 20 samples: never below the median
		{40, 0.75}, // 10 of 40 beyond
		{100, 0.9}, // 10 of 100 beyond
		{199, 1 - 10.0/199},
		{200, 0.95}, // the first count that supports p95
		{5000, 0.95},
	} {
		got := tailQuantile(tc.n)
		if math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if tc.n >= 20 {
			if beyond := float64(tc.n) * (1 - got); beyond < minBeyond-1e-9 {
				t.Errorf("tailQuantile(%d) = %v leaves %.2f samples beyond, want at least %d", tc.n, got, beyond, minBeyond)
			}
		}
	}
}

func TestQuantileLeavesInputUnsorted(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); math.Abs(got-3) > 1e-12 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(xs, 1); math.Abs(got-5) > 1e-12 {
		t.Errorf("quantile(1) = %v, want 5", got)
	}
	if xs[0] != 5 || xs[4] != 3 {
		t.Errorf("quantile sorted its input in place: %v", xs)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
}

func TestRatioOfAnIdleLayerIsZero(t *testing.T) {
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio(3, 0) = %v, want 0", got)
	}
	if got := ratio(3, 4); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("ratio(3, 4) = %v, want 0.75", got)
	}
}
