// Package lane holds the one kernel under every matrix product in the tree:
// GemvT, a strided matrix–vector product with one output element per vector
// lane. The serving GEMM (internal/tensor) runs it once per weight row
// against a packed panel of columns, and the RL controllers' BiLSTM encoder
// (internal/rl) runs its gate projections, Uᵀ·dz and weight gradients through
// it. Each output element is one serial sum in a fixed order on every path,
// so the bits are the same on the AVX kernel, on the Go definition and at
// any GOMAXPROCS.
package lane

// avx reports whether this CPU runs the AVX kernel (checked once, by CPUID
// and XGETBV on amd64; false elsewhere). useAVX selects it; only tests clear
// it, through SetAVX, to run both paths on one host.
var (
	avx    = hasAVX()
	useAVX = avx
)

// AVX reports whether GemvT runs the AVX kernel. A caller with a faster
// portable product of its own (the serving GEMM's 2×4 tile) picks it when
// this is false.
func AVX() bool { return useAVX }

// SetAVX selects GemvT's path and returns the previous selection, for tests
// that run both paths on one host: on asks for the AVX kernel, which is
// granted only where the CPU has it, and false runs the Go definition. No
// production code calls it.
func SetAVX(on bool) (prev bool) {
	prev, useAVX = useAVX, on && avx
	return prev
}

// GemvT adds mᵀ·v to acc: acc[i] += Σ_j m[j*stride+i]·v[j]. Row j of m
// starts at j*stride and its first len(acc) elements are the ones read, so
// the rows that share a v[j] are contiguous and one vector lane holds one
// output element. Each acc[i] is one serial sum over j ascending continuing
// from its value; with skipZero the terms whose v[j] is zero (±0) are left
// out, as BPTT skips a zero dz. gemvTGo is the definition; the AVX kernel
// multiplies and then adds, rounding each lane exactly as it does. The call
// is direct on both paths, so acc, m and v stay where the caller put them: a
// stack accumulator is not moved to the heap.
func GemvT(acc, m []float64, stride int, v []float64, skipZero bool) {
	if len(acc) == 0 || len(v) == 0 {
		return
	}
	// An invariant guard: callers size every operand, and the assembly would
	// read past a short m where Go would panic.
	if stride < 0 || (len(v)-1)*stride+len(acc) > len(m) {
		panic("lane: GemvT matrix too short") //cadmc:allow panicfree
	}
	if useAVX {
		gemvTAVX(acc, m, stride, v, skipZero)
		return
	}
	gemvTGo(acc, m, stride, v, skipZero)
}

// gemvTGo is GemvT's definition and the fallback. It holds a block of acc in
// locals across the whole j loop — eight elements, then four, then one — so
// each element is still one serial sum over j ascending, while the block's
// independent sums overlap in the pipeline. Every product is converted
// before it is added, so no compiler may fuse it into a multiply-add that
// rounds once.
func gemvTGo(acc, m []float64, stride int, v []float64, skipZero bool) {
	i := 0
	for ; i+8 <= len(acc); i += 8 {
		a := (*[8]float64)(acc[i:])
		a0, a1, a2, a3, a4, a5, a6, a7 := a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7]
		for j, x := range v {
			if skipZero && x == 0 {
				continue
			}
			r := (*[8]float64)(m[j*stride+i:])
			a0 += float64(r[0] * x)
			a1 += float64(r[1] * x)
			a2 += float64(r[2] * x)
			a3 += float64(r[3] * x)
			a4 += float64(r[4] * x)
			a5 += float64(r[5] * x)
			a6 += float64(r[6] * x)
			a7 += float64(r[7] * x)
		}
		a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7] = a0, a1, a2, a3, a4, a5, a6, a7
	}
	if i+4 <= len(acc) {
		a := (*[4]float64)(acc[i:])
		a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
		for j, x := range v {
			if skipZero && x == 0 {
				continue
			}
			r := (*[4]float64)(m[j*stride+i:])
			a0 += float64(r[0] * x)
			a1 += float64(r[1] * x)
			a2 += float64(r[2] * x)
			a3 += float64(r[3] * x)
		}
		a[0], a[1], a[2], a[3] = a0, a1, a2, a3
		i += 4
	}
	for ; i < len(acc); i++ {
		a := acc[i]
		for j, x := range v {
			if skipZero && x == 0 {
				continue
			}
			a += float64(m[j*stride+i] * x)
		}
		acc[i] = a
	}
}
