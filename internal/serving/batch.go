package serving

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"cadmc/internal/nn"
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

// InferBatch runs a micro-batch through the split on ws: the prefix [0, cut]
// executes via nn's batched forward (layer weights are streamed once per
// batch, not once per request), then the batch completes — edge-only, or
// offloaded, falling back to the edge when the channel is missing or
// unavailable — reading the prefix's outputs straight out of ws, which is
// the caller's and one goroutine's; a nil ws is the edge Net's own (see
// nn.Net.ForwardRangeBatchView). With a BatchOffloader the offload is one
// call for the whole batch under one deadline budget (≤ 0: none beyond each
// attempt's timeout), and whatever it returns (logits, channel unavailable,
// exhausted budget, remote error) applies to every item; a batch whose
// activations differ in shape, which no single frame can carry, ships item
// by item, each call under its own budget. Any other Offloader is called per
// item with no budget. A non-nil error means the whole batch was rejected
// before any item ran (bad cut, edge forward failure); otherwise the
// returned slice has one outcome per input, in order.
func (e *SplitExecutor) InferBatch(ws *nn.Workspace, xs []*tensor.Tensor, cut int, budget time.Duration) ([]BatchOutcome, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("serving: empty batch")
	}
	if err := e.checkCut(cut); err != nil {
		return nil, err
	}
	e.beginRequests(len(xs))
	defer e.endRequests(len(xs))
	out := make([]BatchOutcome, len(xs))
	if cut < 0 {
		e.completeBatch(xs, cut, budget, out)
		return out, nil
	}
	err := e.Edge.ForwardRangeBatchView(ws, xs, 0, cut+1, func(acts []*tensor.Tensor) error {
		e.completeBatch(acts, cut, budget, out)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("serving: batched edge forward: %w", err)
	}
	return out, nil
}

// completeBatch settles every item of a batch whose edge prefix produced acts
// into out. acts may be views into the edge forward's workspace: they are
// shipped and read by a fallback as they are, and only the logits of an
// edge-resident batch are copied out, into one array.
func (e *SplitExecutor) completeBatch(acts []*tensor.Tensor, cut int, budget time.Duration, out []BatchOutcome) {
	b, batched := e.Client.(BatchOffloader)
	switch {
	case cut == len(e.Edge.Model.Layers)-1:
		per := len(acts[0].Data)
		data := make([]float64, len(acts)*per)
		for i, act := range acts {
			logits := data[i*per : (i+1)*per : (i+1)*per]
			copy(logits, act.Data)
			e.record(RouteEdgeOnly)
			out[i] = BatchOutcome{Logits: logits, Route: RouteEdgeOnly}
		}
	case batched && sameShapes(acts):
		e.offloadBatch(b, acts, cut, budget, out)
	case batched:
		for i := range acts {
			e.offloadBatch(b, acts[i:i+1], cut, budget, out[i:i+1])
		}
	case e.Client == nil:
		for i, act := range acts {
			out[i] = outcome(e.fallback(act, cut, errors.New("serving: no offload client")))
		}
	default:
		for i, act := range acts {
			logits, err := e.Client.Offload(e.ModelID, cut, act)
			out[i] = outcome(e.settle(act, cut, logits, err))
		}
	}
}

// outcome packs one item's result.
func outcome(logits []float64, route Route, err error) BatchOutcome {
	return BatchOutcome{Logits: logits, Route: route, Err: err}
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
		out[i] = outcome(e.settle(act, cut, logits, err))
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
