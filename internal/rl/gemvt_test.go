package rl

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// withKernel runs f with gemvT on the Go definition, then on the AVX kernel
// where this CPU has one.
func withKernel(t *testing.T, f func(t *testing.T)) {
	defer func(old bool) { useAVX = old }(useAVX)
	for _, avx := range []bool{false, true} {
		name := "go"
		if avx {
			name = "avx"
			if avxKernel == nil {
				t.Log("no AVX on this CPU: only the Go definition ran")
				continue
			}
		}
		useAVX = avx
		t.Run(name, f)
	}
}

// Both gemvT paths reproduce the scalar reference encoder and the replayed
// forward bit for bit.
func TestKernelPathsMatchReference(t *testing.T) {
	withKernel(t, func(t *testing.T) {
		t.Run("encoder", TestEncoderMatchesScalarReference)
		t.Run("pass", TestAccumulatePassMatchesFreshForward)
	})
}

// sameBits reports whether a and b are the same float64, any NaN matching
// any NaN: the payload a NaN carries is not part of the contract.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// FuzzGemvT checks the AVX kernel against the Go definition bit for bit:
// every len(acc) residue mod 4, strides wider than acc, ±0 and NaN in v
// (skipped or not), Inf and NaN in m, and an accumulator that starts dirty.
func FuzzGemvT(f *testing.F) {
	for n := 0; n <= 100; n++ {
		for _, skipZero := range []bool{false, true} {
			f.Add(uint8(n), uint8(n%29), uint8(n%7), skipZero, int64(n), uint8(n/4))
		}
	}
	// Bits 0, 1 and 2 of special put special values into v, m and acc.
	f.Fuzz(func(t *testing.T, nAcc, nv, pad uint8, skipZero bool, seed int64, special uint8) {
		if avxKernel == nil {
			t.Skip("no AVX on this CPU")
		}
		n, stride := int(nAcc)%101, int(nAcc)%101+int(pad)%9
		rng := rand.New(rand.NewSource(seed))
		spice := func(x float64, bit uint8, vals ...float64) float64 {
			if special&bit != 0 && rng.Intn(3) == 0 {
				return vals[rng.Intn(len(vals))]
			}
			return x
		}
		v := make([]float64, int(nv)%40)
		for j := range v {
			v[j] = spice(rng.NormFloat64(), 1, 0, math.Copysign(0, -1), math.NaN(), math.Inf(-1))
		}
		m := make([]float64, max(len(v)-1, 0)*stride+n)
		for k := range m {
			m[k] = spice(rng.NormFloat64()*1e3, 2, math.Inf(1), math.Inf(-1), math.NaN(), 0, 5e-324)
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = spice(rng.NormFloat64(), 4, math.Copysign(0, -1), math.NaN())
		}
		// Four sentinels past the end of acc catch a store beyond it.
		got := append(append([]float64(nil), want...), 7, 7, 7, 7)
		gemvTGo(want, m, stride, v, skipZero)
		defer func(old bool) { useAVX = old }(useAVX)
		useAVX = true
		gemvT(got[:n:n], m, stride, v, skipZero)
		for i, x := range got[n:] {
			if x != 7 {
				t.Fatalf("len %d: wrote %v past the end of acc at %d", n, x, n+i)
			}
		}
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("len %d stride %d len(v) %d skipZero %v: acc[%d] = %v (%#x), definition %v (%#x)",
					n, stride, len(v), skipZero, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	})
}

// gemvT refuses a matrix too short for what it would read instead of
// reading past it, on either path.
func TestGemvTRejectsShortMatrix(t *testing.T) {
	withKernel(t, func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic on a short matrix")
			}
		}()
		acc := make([]float64, 6)
		gemvT(acc, make([]float64, 2*8+5), 8, make([]float64, 3), false)
	})
}

// BenchmarkGemvT reports ns per multiply-accumulate on each path for the
// search controllers' products (18 features, 24 hidden units, 12 steps):
// the input and recurrent projections (96×18, 96×24), the backward's Uᵀ·dz
// (24×96) and one gate row's weight gradients (18×12, 24×12).
func BenchmarkGemvT(b *testing.B) {
	defer func(old bool) { useAVX = old }(useAVX)
	for _, avx := range []bool{false, true} {
		if avx && avxKernel == nil {
			continue
		}
		path := "go"
		if avx {
			path = "avx"
		}
		for _, s := range [][2]int{{96, 18}, {96, 24}, {24, 96}, {18, 12}, {24, 12}} {
			rows, cols := s[0], s[1]
			b.Run(fmt.Sprintf("%s/%dx%d", path, rows, cols), func(b *testing.B) {
				useAVX = avx
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
					gemvT(acc, m, rows, v, true)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows*cols), "ns/macc")
			})
		}
	}
}
