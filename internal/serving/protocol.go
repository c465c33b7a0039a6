// Package serving is the edge-cloud execution substrate: a cloud inference
// server that completes partitioned DNN inferences, and an edge client that
// runs a model prefix locally and ships the intermediate activation over a
// real network connection — the "Sending Features" arrow of the paper's
// Fig. 2, made executable.
//
// The wire protocol is checksummed binary request/response frames (wire.go)
// over a single persistent TCP (or any net.Conn) connection, opened by a
// hello / hello-ack exchange that fixes the version and feature flags. The
// micro-batch is the unit of offload: one request frame carries the N ≥ 1
// activations produced after layer `Cut` of a registered model, and the
// response carries the N logit rows the cloud computed by running layers
// (Cut, end) over the batch — one round trip, whatever N is.
//
// The channel is designed to survive the paper's Fig. 1 networks: requests
// carry idempotent IDs echoed by the server, and ResilientClient — the one
// client — never reuses a desynchronized stream (any unrecoverable transport
// error poisons the connection and the next attempt redials), bounds every
// read and write with a deadline, and layers backoff, bounded retries and a
// circuit breaker on top. SplitExecutor degrades to edge-only inference —
// the paper's bandwidth-collapse branch — when the channel is unavailable.
package serving

import (
	"fmt"

	"cadmc/internal/tensor"
)

// Request is one offloaded micro-batch of inference continuations.
type Request struct {
	// ID identifies the logical request; the server echoes it in the
	// response. Retried attempts of one batch reuse the same ID (the cloud
	// half is pure, so replays are idempotent), and a mismatched echo
	// exposes a desynchronized stream instead of silently returning another
	// request's logits.
	ID uint64
	// ModelID names a model registered on the server.
	ModelID string
	// Cut is the layer index that produced the activation; the cloud runs
	// layers Cut+1 onward. Cut == -1 ships the raw input.
	Cut int
	// Shape is the shape (C, H, W) every activation in the batch has.
	Shape []int
	// Activation is the row-major activation data, item after item:
	// Batch × ∏Shape elements.
	Activation []float64
	// Batch is the number of activations a decoded frame carried, ≥ 1. The
	// encoder does not read it: it counts the items it is handed.
	Batch int
}

// Response carries the completed batch or a server-side error. One Err
// answers the whole frame: model, cut, shape and element count are shared by
// the batch, so there is nothing a server rejects for one item only.
type Response struct {
	// ID echoes the request ID this response answers.
	ID uint64
	// Logits holds Batch rows of len(Logits)/Batch logits, in request order.
	Logits []float64
	// Batch is the number of rows a decoded frame carried; 0 on an error
	// response. Like Request.Batch it is not read by the encoder.
	Batch int
	Err   string
}

// RemoteError is an application-level error the server answered with. The
// transport round trip succeeded; the request itself was rejected (unknown
// model, bad cut, shape mismatch). Remote errors are never retried and never
// poison the connection.
type RemoteError struct {
	Msg string
}

func (e *RemoteError) Error() string { return "serving: remote: " + e.Msg }

// DefaultMaxPayloadElems bounds the activation element count a server
// accepts per request frame — the whole batch — (16Mi float64 elements =
// 128 MiB) unless overridden by Server.MaxPayloadElems.
const DefaultMaxPayloadElems = 1 << 24

// batchElems returns the element count of one activation of the given shape
// after checking a batch of n of them against maxElems. Every partial
// product of n × ∏shape is kept ≤ maxElems (which is far below MaxInt), so
// a crafted shape or batch count can neither overflow int nor force a huge
// allocation; and because every dimension is positive, n itself is ≤
// maxElems.
func batchElems(shape []int, n, maxElems int) (int, error) {
	if maxElems <= 0 {
		maxElems = DefaultMaxPayloadElems
	}
	if n <= 0 {
		return 0, fmt.Errorf("serving: request with a batch of %d activations", n)
	}
	if len(shape) == 0 {
		return 0, fmt.Errorf("serving: request without a shape")
	}
	total := n
	for _, d := range shape {
		if d <= 0 {
			return 0, fmt.Errorf("serving: non-positive dimension in shape %v", shape)
		}
		if total > maxElems/d {
			return 0, fmt.Errorf("serving: %d activations of shape %v exceed the %d-element payload limit",
				n, shape, maxElems)
		}
		total *= d
	}
	return total / n, nil
}

// activationTensors validates a request's payload and wraps it as one tensor
// per batch item. The tensors are views into req.Activation, not copies.
func activationTensors(req *Request, maxElems int) ([]*tensor.Tensor, error) {
	elems, err := batchElems(req.Shape, req.Batch, maxElems)
	if err != nil {
		return nil, err
	}
	if req.Batch*elems != len(req.Activation) {
		return nil, fmt.Errorf("serving: %d activations of shape %v need %d elements, got %d",
			req.Batch, req.Shape, req.Batch*elems, len(req.Activation))
	}
	acts := make([]*tensor.Tensor, req.Batch)
	for i := range acts {
		acts[i], err = tensor.FromSlice(req.Activation[i*elems:(i+1)*elems], req.Shape...)
		if err != nil {
			return nil, err
		}
	}
	return acts, nil
}
