//go:build !race

package serving

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"cadmc/internal/tensor"
)

// TestInferBatchBytesIndependentOfActivation: a batched offload ships the
// edge prefix's outputs straight out of the forward's workspace, so the bytes
// one InferBatch allocates do not grow with the cut activation. Cut 0 leaves
// an 8×12×12 activation, cut 2 an 8×6×6 one. The race detector's runtime
// drops pooled workspaces at random, so this only asserts without it.
func TestInferBatchBytesIndependentOfActivation(t *testing.T) {
	model := testNet(t, 73)
	rng := rand.New(rand.NewSource(74))
	const batch = 8
	xs := make([]*tensor.Tensor, batch)
	rows := make([][]float64, batch)
	for i := range xs {
		xs[i] = tensor.Randn(rng, 1, 3, 12, 12)
		rows[i] = make([]float64, 5)
	}
	exec := &SplitExecutor{Edge: model, ModelID: "m", Client: &fakeBatch{rows: rows}}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	run := func(cut int) {
		outcomes, err := exec.InferBatch(xs, cut, 0)
		if err != nil {
			t.Fatal(err)
		}
		if outcomes[0].Route != RouteOffloaded {
			t.Fatalf("cut %d: route %s", cut, outcomes[0].Route)
		}
	}
	// The least of three 20-batch means: TotalAlloc is process-wide, so a
	// trial can also count bytes some other goroutine allocated meanwhile
	// (the runtime's, a finished test's); the minimum is this path's own.
	perBatch := func(cut int) uint64 {
		run(cut) // compile the plan, mint the workspace
		least := uint64(math.MaxUint64)
		for trial := 0; trial < 3; trial++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < 20; i++ {
				run(cut)
			}
			runtime.ReadMemStats(&after)
			least = min(least, (after.TotalAlloc-before.TotalAlloc)/20)
		}
		return least
	}
	big, small := perBatch(0), perBatch(2)
	t.Logf("bytes per batch of %d: %d at cut 0 (8x12x12), %d at cut 2 (8x6x6)", batch, big, small)
	if big != small {
		t.Fatalf("bytes per batch grow with the activation: %d at cut 0, %d at cut 2", big, small)
	}
	if copied := uint64(batch * 8 * 6 * 6 * 8); small >= copied {
		t.Fatalf("%d bytes per batch, at least a copy of the smaller activations (%d)", small, copied)
	}
}
