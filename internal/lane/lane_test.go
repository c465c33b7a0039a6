package lane

import (
	"fmt"
	"math/rand"
	"testing"
)

// A GemvT call on a stack accumulator allocates nothing on either path: the
// dispatch is a direct call, so escape analysis keeps acc, m and v where the
// caller put them. A kernel reached through a function variable would leak
// all three and move this [16]float64 to the heap on every call.
func TestGemvTStackAccumulatorDoesNotAllocate(t *testing.T) {
	m, v := make([]float64, 27*16), make([]float64, 27)
	for i := range m {
		m[i] = float64(i%7) - 3
	}
	for j := range v {
		v[j] = float64(j%5) - 2
	}
	defer SetAVX(SetAVX(false))
	for _, on := range []bool{false, true} {
		if SetAVX(on); on != AVX() {
			t.Log("no AVX on this CPU: only the Go definition ran")
			continue
		}
		var sum float64
		allocs := testing.AllocsPerRun(100, func() {
			var acc [16]float64
			GemvT(acc[:], m, 16, v, false)
			sum += acc[15]
		})
		if allocs != 0 {
			t.Errorf("avx %v: %v allocations per call on a stack accumulator, want 0", on, allocs)
		}
		if sum == 0 {
			t.Errorf("avx %v: the accumulator stayed zero", on)
		}
	}
}

// BenchmarkGemvT reports ns per multiply-accumulate on each path for the
// search controllers' products (18 features, 24 hidden units, 12 steps):
// the input and recurrent projections (96×18, 96×24), the backward's Uᵀ·dz
// (24×96) and one gate row's weight gradients (18×12, 24×12).
func BenchmarkGemvT(b *testing.B) {
	defer SetAVX(SetAVX(false))
	for _, avx := range []bool{false, true} {
		if SetAVX(avx); avx != AVX() {
			continue
		}
		path := "go"
		if avx {
			path = "avx"
		}
		for _, s := range [][2]int{{96, 18}, {96, 24}, {24, 96}, {18, 12}, {24, 12}} {
			rows, cols := s[0], s[1]
			b.Run(fmt.Sprintf("%s/%dx%d", path, rows, cols), func(b *testing.B) {
				SetAVX(avx)
				rng := rand.New(rand.NewSource(1))
				acc, m, v := make([]float64, rows), make([]float64, rows*cols), make([]float64, cols)
				for i := range m {
					m[i] = rng.NormFloat64()
				}
				for j := range v {
					v[j] = rng.NormFloat64()
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					GemvT(acc, m, rows, v, true)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows*cols), "ns/macc")
			})
		}
	}
}
