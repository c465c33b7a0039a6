package rl

// avxKernel is gemvT's AVX kernel, set at init on a CPU that has AVX
// (gemvt_amd64.go), and useAVX selects it. Only this package's tests flip
// useAVX, to run both paths on one host.
var (
	avxKernel func(acc, m []float64, stride int, v []float64, skipZero bool)
	useAVX    bool
)

// gemvT adds mᵀ·v to acc: acc[i] += Σ_j m[j*stride+i]·v[j]. Row j of m
// starts at j*stride and its first len(acc) elements are the ones read, so
// the rows that share a v[j] are contiguous and one vector lane holds one
// output element. Each acc[i] is one serial sum over j ascending continuing
// from its value; with skipZero the terms whose v[j] is zero (±0) are left
// out, as BPTT skips a zero dz. gemvTGo is the definition; the AVX kernel
// multiplies and then adds, rounding each lane exactly as it does.
func gemvT(acc, m []float64, stride int, v []float64, skipZero bool) {
	if len(acc) == 0 || len(v) == 0 {
		return
	}
	// An invariant guard: the encoder sizes every operand, and the assembly
	// would read past a short m where Go would panic.
	if stride < 0 || (len(v)-1)*stride+len(acc) > len(m) {
		panic("rl: gemvT matrix too short") //cadmc:allow panicfree
	}
	if useAVX {
		avxKernel(acc, m, stride, v, skipZero)
		return
	}
	gemvTGo(acc, m, stride, v, skipZero)
}

// gemvTGo is gemvT's definition, the fallback and the tests' oracle. Walking
// j outside i leaves every acc[i] the same serial sum a per-element loop
// computes.
func gemvTGo(acc, m []float64, stride int, v []float64, skipZero bool) {
	for j, x := range v {
		if skipZero && x == 0 {
			continue
		}
		row := m[j*stride:][:len(acc)]
		for i := range acc {
			acc[i] += row[i] * x
		}
	}
}

// transpose writes the rows×cols row-major src into dst as cols×rows.
func transpose(dst, src []float64, rows int) []float64 {
	cols := len(src) / rows
	for r := 0; r < rows; r++ {
		for k, x := range src[r*cols : (r+1)*cols] {
			dst[k*rows+r] = x
		}
	}
	return dst
}
