package serving

import (
	"fmt"
	"time"

	"cadmc/internal/tensor"
)

// BatchOutcome is one request's result inside a batched split inference.
// The batch succeeds or fails per item: one request hitting a transient
// offload error must not poison its batch-mates.
type BatchOutcome struct {
	Logits []float64
	Route  Route
	Err    error
}

// InferBatch runs a micro-batch through the split in one batched edge pass:
// the prefix [0, cut] executes via nn's batched forward (layer weights are
// streamed once per batch, not once per request), then each item completes
// individually — edge-only, offloaded, or fallback under the executor's
// usual policy. A non-nil error means the whole batch was rejected before
// any item ran (bad cut, edge forward failure); otherwise the returned
// slice has one outcome per input, in order.
func (e *SplitExecutor) InferBatch(xs []*tensor.Tensor, cut int) ([]BatchOutcome, error) {
	return e.inferBatch(xs, cut, 0, false)
}

// InferBatchBudget is InferBatch with a deadline budget shared by the whole
// batch: each item's completion goes through the budgeted path, so offload
// retries cannot run past what the batch has left. A non-positive budget
// sheds every partitioned item with ErrBudgetExhausted.
func (e *SplitExecutor) InferBatchBudget(xs []*tensor.Tensor, cut int, budget time.Duration) ([]BatchOutcome, error) {
	return e.inferBatch(xs, cut, budget, true)
}

func (e *SplitExecutor) inferBatch(xs []*tensor.Tensor, cut int, budget time.Duration, budgeted bool) ([]BatchOutcome, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("serving: empty batch")
	}
	if err := e.checkCut(cut); err != nil {
		return nil, err
	}
	e.beginRequests(len(xs))
	defer e.endRequests(len(xs))
	acts := xs
	if cut >= 0 {
		var err error
		acts, err = e.Edge.ForwardRangeBatch(xs, 0, cut+1)
		if err != nil {
			return nil, fmt.Errorf("serving: batched edge forward: %w", err)
		}
	}
	out := make([]BatchOutcome, len(xs))
	for i, act := range acts {
		logits, route, err := e.completeAct(act, cut, budget, budgeted)
		out[i] = BatchOutcome{Logits: logits, Route: route, Err: err}
	}
	return out, nil
}
