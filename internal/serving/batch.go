package serving

import (
	"fmt"
	"slices"
	"time"

	"cadmc/internal/tensor"
)

// BatchOutcome is one request's result inside a batched split inference.
// Outcomes are per item even when the batch travelled as one frame: a batch
// whose offload failed still falls back, sheds or fails item by item.
type BatchOutcome struct {
	Logits []float64
	Route  Route
	Err    error
}

// InferBatch runs a micro-batch through the split: the prefix [0, cut]
// executes via nn's batched forward (layer weights are streamed once per
// batch, not once per request), then the batch completes — edge-only, or
// offloaded under the executor's usual fallback policy. With a BatchOffloader
// the offload is one round trip for the whole batch, and whatever it returns
// (logits, channel unavailable, remote error) applies to every item; any
// other Offloader — and a batch whose activations differ in shape, which no
// single frame can carry — is offloaded item by item, each with its own
// result. A non-nil error means the whole batch was rejected before any item ran (bad
// cut, edge forward failure); otherwise the returned slice has one outcome
// per input, in order.
func (e *SplitExecutor) InferBatch(xs []*tensor.Tensor, cut int) ([]BatchOutcome, error) {
	return e.inferBatch(xs, cut, 0, false)
}

// InferBatchBudget is InferBatch with a deadline budget: a non-positive
// budget sheds every partitioned item with ErrBudgetExhausted, and a
// BatchOffloader gets the whole batch as one budgeted call, so retries,
// backoff and round trips for all N items fit inside one budget. An
// offloader without OffloadBatchWithin is called per item and each call
// restarts the budget (or ignores it, without OffloadWithin either): the
// batch is then only bounded by N × budget.
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
	out := make([]BatchOutcome, len(xs))
	b, batched := e.Client.(BatchOffloader)
	batched = batched && cut < len(e.Edge.Model.Layers)-1
	if batched && cut >= 0 {
		// The edge prefix's outputs are shipped, or read by a fallback,
		// straight out of the forward's workspace: nothing copies them.
		err := e.Edge.ForwardRangeBatchView(xs, 0, cut+1, func(acts []*tensor.Tensor) error {
			e.offloadBatch(b, acts, cut, budget, budgeted, out)
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("serving: batched edge forward: %w", err)
		}
		return out, nil
	}
	acts := xs
	if cut >= 0 {
		var err error
		acts, err = e.Edge.ForwardRangeBatch(xs, 0, cut+1)
		if err != nil {
			return nil, fmt.Errorf("serving: batched edge forward: %w", err)
		}
	}
	if batched && sameShapes(acts) {
		e.offloadBatch(b, acts, cut, budget, budgeted, out)
		return out, nil
	}
	for i, act := range acts {
		logits, route, err := e.completeAct(act, cut, budget, budgeted)
		out[i] = BatchOutcome{Logits: logits, Route: route, Err: err}
	}
	return out, nil
}

// offloadBatch ships acts to the cloud in one round trip and settles every
// item into out from what it returned.
func (e *SplitExecutor) offloadBatch(b BatchOffloader, acts []*tensor.Tensor, cut int, budget time.Duration, budgeted bool, out []BatchOutcome) {
	var (
		rows [][]float64
		err  error
	)
	if budgeted {
		rows, err = b.OffloadBatchWithin(e.ModelID, cut, acts, budget)
	} else {
		rows, err = b.OffloadBatch(e.ModelID, cut, acts)
	}
	for i, act := range acts {
		var logits []float64
		if err == nil {
			logits = rows[i]
		}
		logits, route, ierr := e.settle(act, cut, logits, err)
		out[i] = BatchOutcome{Logits: logits, Route: route, Err: ierr}
	}
}

// sameShapes reports whether every activation has the first one's shape: a
// request frame carries one shape, and an odd-sized input must fail alone
// rather than take its batch-mates with it.
func sameShapes(acts []*tensor.Tensor) bool {
	for _, act := range acts[1:] {
		if !slices.Equal(act.Shape, acts[0].Shape) {
			return false
		}
	}
	return true
}
