package parallel

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// The scratch-buffer arena recycles the []float64 buffers the hot paths burn
// through — the one workspace slab a forward keeps every activation in, the
// GEMM's packed panels, the convolution backward pass's intermediates — so
// steady-state inference and training stop paying allocator + GC cost for
// them.
//
// Bucket scheme: one sync.Pool per power-of-two capacity from 2^arenaMinBits
// (64 elements, 512 B) up to 2^arenaMaxBits (2^24 elements, 128 MiB). A
// request for n elements draws from the smallest bucket with capacity ≥ n
// and returns the slice truncated to length n; a released slice is filed
// under its exact capacity, which is always a bucket size because only the
// arena mints them. Requests outside the bucket range fall through to the
// ordinary allocator: tiny buffers are cheaper to allocate than to recycle,
// and huge ones should stay visible to the GC.
//
// GetF64 always returns a zeroed slice: a recycled buffer is indistinguishable
// from a fresh one, and costs one memclr instead of an allocation plus the
// same memclr. No kernel depends on it — each writes every float it reads
// (padding included), which the dirty-buffer determinism tests pin.
const (
	arenaMinBits = 6  // smallest pooled capacity: 64 elements
	arenaMaxBits = 24 // largest pooled capacity: 16M elements (128 MiB)
)

// arenaOff disables recycling when set; GetF64/PutF64 degrade to plain
// make + drop. The kernel benchmarks flip this to price the arena.
var arenaOff atomic.Bool

// arenaHits / arenaMisses count pooled vs fresh GetF64 allocations for
// eligible sizes; tests and benches read them through ArenaStats.
var arenaHits, arenaMisses atomic.Int64

var arenaBuckets [arenaMaxBits + 1]sync.Pool

// SetArena enables (true) or disables (false) scratch-buffer recycling and
// returns the previous setting. Like SetSerial this never changes results,
// only where transient buffers come from.
func SetArena(on bool) bool { return !arenaOff.Swap(!on) }

// ArenaEnabled reports whether scratch-buffer recycling is active.
func ArenaEnabled() bool { return !arenaOff.Load() }

// ArenaStats returns how many eligible GetF64 calls were served from a
// bucket (hits) versus freshly allocated (misses) since process start.
func ArenaStats() (hits, misses int64) {
	return arenaHits.Load(), arenaMisses.Load()
}

// GetF64 returns a zero-filled []float64 of length n, drawn from the arena
// when recycling is on and n falls inside the bucket range. The slice is
// exclusively the caller's until handed back via PutF64.
func GetF64(n int) []float64 {
	if n <= 0 {
		return nil
	}
	if arenaOff.Load() || n < 1<<arenaMinBits || n > 1<<arenaMaxBits {
		return make([]float64, n)
	}
	b := bits.Len(uint(n - 1)) // smallest b with 1<<b >= n
	if p, ok := arenaBuckets[b].Get().(*[]float64); ok {
		arenaHits.Add(1)
		s := (*p)[:n]
		clear(s)
		return s
	}
	arenaMisses.Add(1)
	return make([]float64, n, 1<<b)
}

// PutF64 files s back into its bucket. Only slices minted by GetF64 qualify
// (exact power-of-two capacity inside the bucket range); anything else —
// including every slice handed out while the arena was disabled — is left
// for the GC. The caller must not touch s afterwards.
func PutF64(s []float64) {
	c := cap(s)
	if arenaOff.Load() || c < 1<<arenaMinBits || c > 1<<arenaMaxBits || c&(c-1) != 0 {
		return
	}
	s = s[:0]
	arenaBuckets[bits.Len(uint(c-1))].Put(&s)
}
