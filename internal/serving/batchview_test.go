package serving

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"cadmc/internal/tensor"
)

// fakeBatch answers a micro-batch with fixed logits rows, or with err. It
// reads every activation, as the wire encoder does, and keeps none of them.
type fakeBatch struct {
	rows [][]float64
	err  error
	sum  float64
}

var _ BatchOffloader = (*fakeBatch)(nil)

func (f *fakeBatch) Offload(modelID string, cut int, act *tensor.Tensor) ([]float64, error) {
	rows, err := f.OffloadBatch(modelID, cut, []*tensor.Tensor{act})
	if err != nil {
		return nil, err
	}
	return rows[0], nil
}

func (f *fakeBatch) OffloadBatch(_ string, _ int, acts []*tensor.Tensor) ([][]float64, error) {
	for _, act := range acts {
		for _, v := range act.Data {
			f.sum += v
		}
	}
	if f.err != nil {
		return nil, f.err
	}
	return f.rows[:len(acts)], nil
}

func (f *fakeBatch) OffloadBatchWithin(modelID string, cut int, acts []*tensor.Tensor, _ time.Duration) ([][]float64, error) {
	return f.OffloadBatch(modelID, cut, acts)
}

// TestInferBatchViewFallbackMatchesCopyPath: when the batched offload of a
// batch whose activations are views into the edge forward's workspace fails
// as unavailable, every item falls back to the edge reading its view before
// the workspace is released, and completes bit for bit as the per-item path,
// which works on copies, does.
func TestInferBatchViewFallbackMatchesCopyPath(t *testing.T) {
	model := testNet(t, 71)
	rng := rand.New(rand.NewSource(72))
	xs := make([]*tensor.Tensor, 5)
	for i := range xs {
		xs[i] = tensor.Randn(rng, 1, 3, 12, 12)
	}
	down := &fakeBatch{err: ErrUnavailable}
	for _, cut := range []int{0, 2, 7} {
		viewed := &SplitExecutor{Edge: model, ModelID: "m", Client: down, FallbackLocal: true}
		copied := &SplitExecutor{Edge: model, ModelID: "m", Client: itemOffloader{down}, FallbackLocal: true}
		got, err := viewed.InferBatch(xs, cut)
		if err != nil {
			t.Fatal(err)
		}
		want, err := copied.InferBatch(xs, cut)
		if err != nil {
			t.Fatal(err)
		}
		for i := range xs {
			if got[i].Err != nil || want[i].Err != nil {
				t.Fatalf("cut %d item %d: %v / %v", cut, i, got[i].Err, want[i].Err)
			}
			if got[i].Route != RouteFallback || want[i].Route != RouteFallback {
				t.Fatalf("cut %d item %d: routes %s / %s, want fallback", cut, i, got[i].Route, want[i].Route)
			}
			if len(got[i].Logits) != len(want[i].Logits) {
				t.Fatalf("cut %d item %d: %d logits, want %d", cut, i, len(got[i].Logits), len(want[i].Logits))
			}
			for j := range want[i].Logits {
				if math.Float64bits(got[i].Logits[j]) != math.Float64bits(want[i].Logits[j]) {
					t.Fatalf("cut %d item %d logit %d: %v, want %v", cut, i, j, got[i].Logits[j], want[i].Logits[j])
				}
			}
		}
	}
}
