package lane

// hasAVX reports whether the CPU has AVX and the OS saves the YMM state
// (CPUID.1:ECX OSXSAVE and AVX, XCR0 bits 1–2).
func hasAVX() bool

// gemvTAVX is GemvT on YMM lanes of four elements each; m must be long
// enough (GemvT checks).
//
//go:noescape
func gemvTAVX(acc, m []float64, stride int, v []float64, skipZero bool)
