package serving

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"cadmc/internal/nn"
	"cadmc/internal/tensor"
)

// Offloader is the single-item offload channel: one activation out, one
// logits row back. SplitExecutor calls it once per item when the client
// cannot ship a batch. The activation may be a view into the edge forward's
// workspace, so an implementation must not retain it, or anything aliasing
// its data, after it returns.
type Offloader interface {
	Offload(modelID string, cut int, act *tensor.Tensor) ([]float64, error)
}

// BatchOffloader is an Offloader that ships a whole micro-batch of
// same-shaped activations in one round trip and returns one logits row per
// activation. The batch succeeds or fails as a unit. A positive budget bounds
// the whole call — retries, backoff and round trips for all N items; a budget
// ≤ 0 sets no deadline beyond each attempt's own timeout. Like Offload's, the
// activations may be views that must not be retained. ResilientClient
// implements it.
type BatchOffloader interface {
	Offloader
	OffloadBatch(modelID string, cut int, acts []*tensor.Tensor, budget time.Duration) ([][]float64, error)
}

// ErrBudgetExhausted reports that a request's deadline budget ran out before
// the offload could complete. It is deliberately NOT classified as
// offloadUnavailable: an exhausted budget means the answer is already too
// late, so the executor sheds the request instead of burning more time on a
// local fallback pass.
var ErrBudgetExhausted = errors.New("serving: request budget exhausted")

// Route records where one inference was completed.
type Route int

// Routes. RouteEdgeOnly was planned edge-resident (cut == n-1);
// RouteOffloaded completed on the cloud; RouteFallback was planned
// partitioned but completed on the edge because there was no channel or it
// was unavailable — the paper's bandwidth-collapse branch taken at runtime.
const (
	RouteEdgeOnly Route = iota + 1
	RouteOffloaded
	RouteFallback
)

// String renders the route name.
func (r Route) String() string {
	switch r {
	case RouteEdgeOnly:
		return "edge-only"
	case RouteOffloaded:
		return "offloaded"
	case RouteFallback:
		return "fallback"
	default:
		return fmt.Sprintf("Route(%d)", int(r))
	}
}

// SplitStats aggregates per-request outcomes of a SplitExecutor.
type SplitStats struct {
	// Inferences is the total completed without error.
	Inferences int64
	// EdgeOnly, Offloaded and Fallbacks partition Inferences by route.
	EdgeOnly  int64
	Offloaded int64
	Fallbacks int64
	// InFlight counts requests currently inside InferBatch: admitted
	// to the executor but not yet completed or failed. A drained executor
	// reports zero.
	InFlight int64
}

// Add accumulates other into s — the gateway sums per-worker executors into
// one per-route view.
func (s *SplitStats) Add(other SplitStats) {
	s.Inferences += other.Inferences
	s.EdgeOnly += other.EdgeOnly
	s.Offloaded += other.Offloaded
	s.Fallbacks += other.Fallbacks
	s.InFlight += other.InFlight
}

// String renders the one-line summary cmd/emulate prints.
func (s SplitStats) String() string {
	return fmt.Sprintf("%d inferences (%d offloaded, %d edge-only, %d fallback), %d in flight",
		s.Inferences, s.Offloaded, s.EdgeOnly, s.Fallbacks, s.InFlight)
}

// SplitExecutor runs partitioned inference for one executable model: the
// prefix [0, cut] locally, the suffix on the cloud through the client. It is
// the executable realisation of the candidate deployments the decision
// engine evaluates analytically, and it degrades gracefully: when there is no
// client, or the offload channel is open-circuited, broken, or a request
// exhausts its retries, the suffix runs on the edge too and the inference
// still completes — the paper's bandwidth-collapse branch taken at runtime.
type SplitExecutor struct {
	// Edge holds the local (edge-resident) weights.
	Edge *nn.Net
	// ModelID is the identifier the cloud server knows the model by.
	ModelID string
	// Client is the offload channel; a BatchOffloader gets each batch in one
	// call, any other Offloader one call per item. Nil completes every
	// inference on the edge.
	Client Offloader
	// Metrics, when set, receives per-route completion counters
	// (serving.route.*) and budget-shed counts (serving.budget.shed) in
	// addition to the SplitStats the executor always keeps.
	Metrics MetricSink

	mu    sync.Mutex
	stats SplitStats
}

// Stats returns a snapshot of the per-request route counters.
func (e *SplitExecutor) Stats() SplitStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

func (e *SplitExecutor) record(r Route) {
	e.mu.Lock()
	e.stats.Inferences++
	var metric string
	switch r {
	case RouteEdgeOnly:
		e.stats.EdgeOnly++
		metric = metricRouteEdgeOnly
	case RouteOffloaded:
		e.stats.Offloaded++
		metric = metricRouteOffloaded
	case RouteFallback:
		e.stats.Fallbacks++
		metric = metricRouteFallback
	}
	sink := e.Metrics
	e.mu.Unlock()
	if sink != nil && metric != "" {
		sink.Count(metric, 1)
	}
}

// recordBudgetShed counts an inference shed on an exhausted deadline budget.
func (e *SplitExecutor) recordBudgetShed() {
	if e.Metrics != nil {
		e.Metrics.Count(metricBudgetShed, 1)
	}
}

// beginRequests/endRequests bracket the in-flight window of n requests;
// endRequests runs on every exit path, error or not.
func (e *SplitExecutor) beginRequests(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stats.InFlight += int64(n)
}

func (e *SplitExecutor) endRequests(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stats.InFlight -= int64(n)
}

// offloadUnavailable classifies errors that mean "the channel cannot serve
// this request", as opposed to the request itself being invalid.
func offloadUnavailable(err error) bool {
	return errors.Is(err, ErrUnavailable) || errors.Is(err, ErrCircuitOpen)
}

// InferRoute classifies x with the split at cut — cut == len(layers)-1 runs
// everything locally, cut == -1 ships the raw input — and returns the logits
// and the route the inference took. It is InferBatch at N = 1 on the edge
// Net's own workspace with no deadline budget.
func (e *SplitExecutor) InferRoute(x *tensor.Tensor, cut int) ([]float64, Route, error) {
	out, err := e.InferBatch(nil, []*tensor.Tensor{x}, cut, 0)
	if err != nil {
		return nil, 0, err
	}
	return out[0].Logits, out[0].Route, out[0].Err
}

// checkCut validates the executor and cut before any work is admitted.
func (e *SplitExecutor) checkCut(cut int) error {
	if e.Edge == nil {
		return errors.New("serving: split executor without an edge model")
	}
	if n := len(e.Edge.Model.Layers); cut < -1 || cut >= n {
		return fmt.Errorf("serving: cut %d out of range [-1,%d)", cut, n)
	}
	return nil
}

// settle turns what the offload of act returned — alone or as one row of a
// batch — into the item's outcome: offloaded on success, shed on an
// exhausted budget, completed on the edge when the channel is unavailable,
// failed otherwise.
func (e *SplitExecutor) settle(act *tensor.Tensor, cut int, logits []float64, err error) ([]float64, Route, error) {
	if err == nil {
		e.record(RouteOffloaded)
		return logits, RouteOffloaded, nil
	}
	if errors.Is(err, ErrBudgetExhausted) {
		e.recordBudgetShed()
		return nil, 0, err
	}
	if offloadUnavailable(err) {
		return e.fallback(act, cut, err)
	}
	return nil, 0, err
}

// fallback completes the suffix on the edge — the cut = n-1 branch the paper
// reserves for collapsed bandwidth — reusing the activation already computed
// for the offload attempt. That activation is a view of the caller's
// workspace, so the suffix runs through ForwardFrom, on the Net's own
// workspace or a throwaway one, never on the caller's.
func (e *SplitExecutor) fallback(act *tensor.Tensor, cut int, cause error) ([]float64, Route, error) {
	out, err := e.Edge.ForwardFrom(act, cut+1)
	if err != nil {
		return nil, 0, fmt.Errorf("serving: edge fallback (after %v): %w", cause, err)
	}
	e.record(RouteFallback)
	return out.Data, RouteFallback, nil
}
