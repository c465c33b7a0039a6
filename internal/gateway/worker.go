package gateway

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"cadmc/internal/nn"
	"cadmc/internal/serving"
	"cadmc/internal/tensor"
)

// worker is one member of the edge pool. It owns its offload channel and has
// exactly one micro-batch — one request frame, one round trip — outstanding
// on it; per-worker channels are what let the pool overlap round trips (on
// an edge device the win comes from hiding wire latency, not from CPU
// parallelism). It keeps one SplitExecutor per variant it has served, so
// route stats survive hot-swaps.
type worker struct {
	id        int
	g         *Gateway
	offloader serving.Offloader

	// abandoned is set by the supervisor when the worker is declared wedged
	// and replaced. The worker may still be blocked inside an offload; once
	// that unblocks it exits its loop instead of stealing more work.
	abandoned atomic.Bool
	// heartbeat is the gateway-clock time (nanos) of the worker's last
	// observable progress: batch pickup and batch completion. A worker whose
	// heartbeat goes stale while it holds a batch is wedged.
	heartbeat atomic.Int64

	mu    sync.Mutex
	cur   []*request // batch currently executing; nil when idle
	execs map[string]*serving.SplitExecutor
}

// run is the worker loop: serve the handoff batch first if the supervisor
// gave us one (restart re-queue), then pop coalesced batches until the queue
// is closed and drained — which is what makes Stop lossless — or until the
// supervisor abandons this worker. Every batch's forward runs in ws, which
// belongs to this goroutine alone: a wedged worker's workspace dies with it
// instead of outliving it in the gateway's retired list.
func (w *worker) run(wg *sync.WaitGroup, handoff []*request) {
	defer wg.Done()
	ws := new(nn.Workspace)
	if len(handoff) > 0 {
		w.serve(ws, handoff)
	}
	for !w.abandoned.Load() {
		batch := w.g.q.popBatch(w.g.cfg.MaxBatch, w.g.cfg.MaxWait)
		if batch == nil {
			return
		}
		w.serve(ws, batch)
	}
}

// serve executes one micro-batch on ws. The variant is loaded once: every
// request in the batch runs the same composed chain, and a hot-swap landing
// after this load only affects later batches — this batch drains on its
// variant.
func (w *worker) serve(ws *nn.Workspace, batch []*request) {
	v := w.g.variant.Load()
	now := w.g.cfg.Clock.Now()

	// Pre-shed: skip requests another worker already settled (a re-queued
	// batch can overlap with what the wedged original eventually finishes)
	// and answer expired budgets without executing anything.
	budget := w.g.cfg.RequestBudget
	live := make([]*request, 0, len(batch))
	minRemaining := time.Duration(0)
	newestEnq := time.Duration(0)
	for _, r := range batch {
		if r.settled.Load() {
			continue
		}
		r.dispatch.Store(int64(now))
		if r.trace != nil {
			r.trace.SetLabel(v.Sig)
			r.trace.Span("queue", "", durMS(r.enq), durMS(now))
		}
		if budget > 0 {
			remaining := budget - (now - r.enq)
			if remaining <= 0 {
				if w.g.complete(r, Result{VariantSig: v.Sig, Err: ErrBudgetExceeded}) {
					w.g.m.budgetExpired.Inc()
				}
				continue
			}
			if len(live) == 0 || remaining < minRemaining {
				minRemaining = remaining
			}
		}
		if r.enq > newestEnq {
			newestEnq = r.enq
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	w.g.m.batches.Inc()
	w.g.m.batchedReqs.Add(int64(len(live)))
	w.g.m.batchSize.Observe(float64(len(live)))
	// Assemble time is how long the batch's last arrival waited for pickup —
	// derived from existing stamps, not a fresh clock read, so a
	// deterministic clock's read sequence is unchanged by metering.
	w.g.m.batchAssemble.Observe(durMS(now - newestEnq))

	// Publish the batch for the supervisor: heartbeat first, then cur, so a
	// watchdog that sees cur != nil always sees a heartbeat at least as
	// fresh as the pickup. The defer stores the last value this worker read
	// from the clock rather than reading it again: the batch's results are
	// already delivered by then, so a fresh read would race the submitter's
	// next Clock.Now and break deterministic replay. The supervisor only
	// consults heartbeat while cur != nil, so the slightly stale value is
	// never load-bearing.
	end := now
	w.heartbeat.Store(int64(now))
	w.mu.Lock()
	w.cur = live
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		w.cur = nil
		w.mu.Unlock()
		w.heartbeat.Store(int64(end))
	}()

	v.inflight.Add(int64(len(live)))
	defer v.inflight.Add(-int64(len(live)))

	exec := w.executor(v)
	xs := make([]*tensor.Tensor, len(live))
	for i, r := range live {
		xs[i] = r.input
	}
	execStart := w.g.cfg.Clock.Now()
	// The batch is one offload — one frame, one budget — so bound it by the
	// tightest remaining budget in the batch (0, no deadline, when requests
	// carry no budget).
	outcomes, err := exec.InferBatch(ws, xs, v.Cut, minRemaining)
	execEnd := w.g.cfg.Clock.Now()
	end = execEnd
	// Only traced requests read the batch span's detail: build it when one
	// is present, not on every batch.
	batchDetail := ""
	for _, r := range live {
		if r.trace != nil {
			batchDetail = fmt.Sprintf("size=%d", len(live))
			break
		}
	}
	if err != nil {
		// Whole-batch rejection: answer every request with the error rather
		// than dropping any.
		for _, r := range live {
			if r.trace != nil {
				r.trace.Span("batch", batchDetail, durMS(now), durMS(execStart))
				r.trace.Span("error", err.Error(), durMS(execStart), durMS(execEnd))
			}
			w.g.complete(r, Result{VariantSig: v.Sig, BatchSize: len(live), Err: err})
		}
		return
	}
	for i, r := range live {
		o := outcomes[i]
		if r.trace != nil {
			r.trace.Span("batch", batchDetail, durMS(now), durMS(execStart))
			r.trace.Span(routeSpanName(o), "", durMS(execStart), durMS(execEnd))
		}
		if w.g.complete(r, Result{
			Logits:     o.Logits,
			Route:      o.Route,
			VariantSig: v.Sig,
			BatchSize:  len(live),
			Err:        o.Err,
		}) && o.Err != nil && errorIsBudget(o.Err) {
			w.g.m.budgetExpired.Inc()
		}
	}
}

// routeSpanName labels the execution span of one outcome: the route that
// served it, or "error" when the request failed before any route resolved.
func routeSpanName(o serving.BatchOutcome) string {
	if o.Route == 0 {
		return "error"
	}
	return o.Route.String()
}

// errorIsBudget reports whether an outcome failed on an exhausted deadline
// budget (at either layer of the stack).
func errorIsBudget(err error) bool {
	return errors.Is(err, serving.ErrBudgetExhausted) || errors.Is(err, ErrBudgetExceeded)
}

// executor returns this worker's executor for a variant, building it on
// first use. Workers never share executors, so the only contention on the
// hot path is the executor's own stats mutex.
func (w *worker) executor(v *Variant) *serving.SplitExecutor {
	w.mu.Lock()
	defer w.mu.Unlock()
	if e, ok := w.execs[v.Sig]; ok {
		return e
	}
	e := &serving.SplitExecutor{
		Edge:    v.Net,
		ModelID: v.ModelID,
		Client:  w.offloader,
		Metrics: w.g.cfg.Metrics,
	}
	w.execs[v.Sig] = e
	return e
}

// stats sums the per-variant executors' route counters.
func (w *worker) stats() serving.SplitStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	var s serving.SplitStats
	for _, e := range w.execs {
		s.Add(e.Stats())
	}
	return s
}

// closeOffloader releases the worker's offload channel: through the
// configured closer when there is one, else through the channel's own Close.
func (w *worker) closeOffloader() {
	if w.offloader == nil {
		return
	}
	if closeFn := w.g.cfg.CloseOffloader; closeFn != nil {
		_ = closeFn(w.offloader)
	} else if c, ok := w.offloader.(io.Closer); ok {
		_ = c.Close()
	}
}
