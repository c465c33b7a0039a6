package rl

import (
	"math"
	"math/rand"
	"testing"

	"cadmc/internal/lane"
)

// withKernel runs f with lane.GemvT on the Go definition, then on the AVX
// kernel where this CPU has one.
func withKernel(t *testing.T, f func(t *testing.T)) {
	defer lane.SetAVX(lane.SetAVX(false))
	for _, avx := range []bool{false, true} {
		if lane.SetAVX(avx); avx != lane.AVX() {
			t.Log("no AVX on this CPU: only the Go definition ran")
			continue
		}
		name := "go"
		if avx {
			name = "avx"
		}
		t.Run(name, f)
	}
}

// Both lane.GemvT paths reproduce the scalar reference encoder and the replayed
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

// gemvTNaive is the definition of lane.GemvT as a plain loop, the oracle of
// FuzzGemvT: each acc[i] one serial sum over j ascending from its value.
func gemvTNaive(acc, m []float64, stride int, v []float64, skipZero bool) {
	for j, x := range v {
		if skipZero && x == 0 {
			continue
		}
		row := m[j*stride:][:len(acc)]
		for i := range acc {
			acc[i] += float64(row[i] * x)
		}
	}
}

// FuzzGemvT checks both lane.GemvT paths against the naive loop bit for
// bit: every len(acc) residue mod 8, strides wider than acc, ±0 and NaN in v
// (skipped or not), Inf and NaN in m, and an accumulator that starts dirty.
// The later seeds are the serving GEMM's: one weight row of k ∈ {27, 576,
// 4608} against a 16-wide panel, the whole panel or a narrower last one.
func FuzzGemvT(f *testing.F) {
	for n := 0; n <= 100; n++ {
		for _, skipZero := range []bool{false, true} {
			f.Add(uint8(n), uint16(n%29), uint8(n%7), skipZero, int64(n), uint8(n/4))
		}
	}
	for _, k := range []int{27, 576, 4608} {
		for n := 1; n <= 16; n++ {
			f.Add(uint8(n), uint16(k), uint8(16-n), false, int64(k+n), uint8(n%8))
		}
	}
	// Bits 0, 1 and 2 of special put special values into v, m and acc.
	f.Fuzz(func(t *testing.T, nAcc uint8, nv uint16, pad uint8, skipZero bool, seed int64, special uint8) {
		n, stride := int(nAcc)%101, int(nAcc)%101+int(pad)%17
		rng := rand.New(rand.NewSource(seed))
		spice := func(x float64, bit uint8, vals ...float64) float64 {
			if special&bit != 0 && rng.Intn(3) == 0 {
				return vals[rng.Intn(len(vals))]
			}
			return x
		}
		v := make([]float64, int(nv)%4609)
		for j := range v {
			v[j] = spice(rng.NormFloat64(), 1, 0, math.Copysign(0, -1), math.NaN(), math.Inf(-1))
		}
		m := make([]float64, max(len(v)-1, 0)*stride+n)
		for k := range m {
			m[k] = spice(rng.NormFloat64()*1e3, 2, math.Inf(1), math.Inf(-1), math.NaN(), 0, 5e-324)
		}
		acc := make([]float64, n)
		for i := range acc {
			acc[i] = spice(rng.NormFloat64(), 4, math.Copysign(0, -1), math.NaN())
		}
		want := append([]float64(nil), acc...)
		gemvTNaive(want, m, stride, v, skipZero)
		defer lane.SetAVX(lane.SetAVX(false))
		for _, avx := range []bool{false, true} {
			if lane.SetAVX(avx); avx != lane.AVX() {
				continue // no AVX on this CPU
			}
			// Four sentinels past the end of acc catch a store beyond it.
			got := append(append([]float64(nil), acc...), 7, 7, 7, 7)
			lane.GemvT(got[:n:n], m, stride, v, skipZero)
			for i, x := range got[n:] {
				if x != 7 {
					t.Fatalf("avx %v len %d: wrote %v past the end of acc at %d", avx, n, x, n+i)
				}
			}
			for i := range want {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("avx %v len %d stride %d len(v) %d skipZero %v: acc[%d] = %v (%#x), naive loop %v (%#x)",
						avx, n, stride, len(v), skipZero, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
	})
}

// lane.GemvT refuses a matrix too short for what it would read instead of
// reading past it, on either path.
func TestGemvTRejectsShortMatrix(t *testing.T) {
	withKernel(t, func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic on a short matrix")
			}
		}()
		acc := make([]float64, 6)
		lane.GemvT(acc, make([]float64, 2*8+5), 8, make([]float64, 3), false)
	})
}
