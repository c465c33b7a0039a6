//go:build !amd64

package lane

// hasAVX is false off amd64: GemvT runs the Go definition.
func hasAVX() bool { return false }

// gemvTAVX is never selected off amd64; it is the definition, so the
// dispatch in GemvT stays one direct call on every architecture.
func gemvTAVX(acc, m []float64, stride int, v []float64, skipZero bool) {
	gemvTGo(acc, m, stride, v, skipZero)
}
