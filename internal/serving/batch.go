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
// offloaded, falling back to the edge when the channel is missing or
// unavailable. With a BatchOffloader the offload is one call for the whole
// batch under one deadline budget (≤ 0: none beyond each attempt's timeout),
// and whatever it returns (logits, channel unavailable, exhausted budget,
// remote error) applies to every item; a batch whose activations differ in
// shape, which no single frame can carry, ships item by item, each call under
// its own budget. Any other Offloader is called per item with no budget. A
// non-nil error means the whole batch was rejected before any item ran (bad
// cut, edge forward failure); otherwise the returned slice has one outcome
// per input, in order.
func (e *SplitExecutor) InferBatch(xs []*tensor.Tensor, cut int, budget time.Duration) ([]BatchOutcome, error) {
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
			e.offloadBatch(b, acts, cut, budget, out)
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
	switch {
	case batched && sameShapes(acts):
		e.offloadBatch(b, acts, cut, budget, out)
	case batched:
		for i := range acts {
			e.offloadBatch(b, acts[i:i+1], cut, budget, out[i:i+1])
		}
	default:
		for i, act := range acts {
			logits, route, err := e.completeAct(act, cut)
			out[i] = BatchOutcome{Logits: logits, Route: route, Err: err}
		}
	}
	return out, nil
}

// offloadBatch ships acts to the cloud in one call and settles every item
// into out from what it returned.
func (e *SplitExecutor) offloadBatch(b BatchOffloader, acts []*tensor.Tensor, cut int, budget time.Duration, out []BatchOutcome) {
	rows, err := b.OffloadBatch(e.ModelID, cut, acts, budget)
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
