package serving

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"cadmc/internal/nn"
	"cadmc/internal/tensor"
)

// Offloader is the offload channel SplitExecutor speaks to; ResilientClient
// implements it.
type Offloader interface {
	Offload(modelID string, cut int, act *tensor.Tensor) ([]float64, error)
}

// DeadlineOffloader is an Offloader that can bound one whole offload —
// retries, backoff and round trips included — within a deadline budget.
// ResilientClient implements it.
type DeadlineOffloader interface {
	Offloader
	OffloadWithin(modelID string, cut int, act *tensor.Tensor, budget time.Duration) ([]float64, error)
}

// BatchOffloader is an Offloader that can ship a whole micro-batch of
// same-shaped activations in one round trip and return one logits row per
// activation, with or without a deadline budget covering the whole batch. The
// batch succeeds or fails as a unit. ResilientClient implements it.
type BatchOffloader interface {
	Offloader
	OffloadBatch(modelID string, cut int, acts []*tensor.Tensor) ([][]float64, error)
	OffloadBatchWithin(modelID string, cut int, acts []*tensor.Tensor, budget time.Duration) ([][]float64, error)
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
// partitioned but fell back to edge-only because the channel was
// unavailable — the paper's bandwidth-collapse branch taken at runtime.
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
	// InFlight counts requests currently inside Infer/InferBatch: admitted
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
// engine evaluates analytically. With FallbackLocal set it degrades
// gracefully: when the offload channel is open-circuited, broken, or a
// request exhausts its retries, the suffix runs on the edge too and the
// inference still completes.
type SplitExecutor struct {
	// Edge holds the local (edge-resident) weights.
	Edge *nn.Net
	// ModelID is the identifier the cloud server knows the model by.
	ModelID string
	// Client is the offload channel; may be nil if every inference runs
	// fully on the edge (cut == len(layers)-1).
	Client Offloader
	// FallbackLocal completes partitioned inferences on the edge when the
	// channel is unavailable instead of failing them.
	FallbackLocal bool
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

// Infer classifies x with the split at `cut`: cut == len(layers)-1 runs
// everything locally; cut == -1 ships the raw input. It returns the logits.
func (e *SplitExecutor) Infer(x *tensor.Tensor, cut int) ([]float64, error) {
	logits, _, err := e.InferRoute(x, cut)
	return logits, err
}

// InferRoute is Infer plus the route the inference actually took.
func (e *SplitExecutor) InferRoute(x *tensor.Tensor, cut int) ([]float64, Route, error) {
	if err := e.checkCut(cut); err != nil {
		return nil, 0, err
	}
	e.beginRequests(1)
	defer e.endRequests(1)
	act := x
	if cut >= 0 {
		var err error
		act, err = e.Edge.ForwardRange(x, 0, cut+1)
		if err != nil {
			return nil, 0, err
		}
	}
	return e.completeAct(act, cut, 0, false)
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

// completeAct finishes one inference whose edge prefix already produced act:
// edge-only when the cut keeps everything local, otherwise offload with the
// configured fallback policy. When budgeted, the offload goes through the
// client's OffloadWithin if it has one (clients without deadline support get
// the plain Offload), and an exhausted budget sheds rather than falls back.
func (e *SplitExecutor) completeAct(act *tensor.Tensor, cut int, budget time.Duration, budgeted bool) ([]float64, Route, error) {
	if cut == len(e.Edge.Model.Layers)-1 {
		// Edge-resident: the local pass is the cheapest thing we can do with
		// the request at this point, budget or not.
		e.record(RouteEdgeOnly)
		return append([]float64(nil), act.Data...), RouteEdgeOnly, nil
	}
	if budgeted && budget <= 0 {
		e.recordBudgetShed()
		return nil, 0, ErrBudgetExhausted
	}
	if e.Client == nil {
		if e.FallbackLocal {
			return e.fallback(act, cut, errors.New("serving: no offload client"))
		}
		return nil, 0, errors.New("serving: partitioned inference needs an offload client")
	}
	var (
		logits []float64
		err    error
	)
	if d, ok := e.Client.(DeadlineOffloader); budgeted && ok {
		logits, err = d.OffloadWithin(e.ModelID, cut, act, budget)
	} else {
		logits, err = e.Client.Offload(e.ModelID, cut, act)
	}
	return e.settle(act, cut, logits, err)
}

// settle turns what the offload of act returned — alone or as one row of a
// batch — into the item's outcome: offloaded on success, shed on an
// exhausted budget, completed on the edge when the channel is unavailable
// and FallbackLocal is set, failed otherwise.
func (e *SplitExecutor) settle(act *tensor.Tensor, cut int, logits []float64, err error) ([]float64, Route, error) {
	if err == nil {
		e.record(RouteOffloaded)
		return logits, RouteOffloaded, nil
	}
	if errors.Is(err, ErrBudgetExhausted) {
		e.recordBudgetShed()
		return nil, 0, err
	}
	if e.FallbackLocal && offloadUnavailable(err) {
		return e.fallback(act, cut, err)
	}
	return nil, 0, err
}

// fallback completes the suffix on the edge — the cut = n-1 branch the paper
// reserves for collapsed bandwidth — reusing the activation already computed
// for the offload attempt.
func (e *SplitExecutor) fallback(act *tensor.Tensor, cut int, cause error) ([]float64, Route, error) {
	out, err := e.Edge.ForwardFrom(act, cut+1)
	if err != nil {
		return nil, 0, fmt.Errorf("serving: edge fallback (after %v): %w", cause, err)
	}
	e.record(RouteFallback)
	return append([]float64(nil), out.Data...), RouteFallback, nil
}

// Predict returns the argmax class for x at the given cut.
func (e *SplitExecutor) Predict(x *tensor.Tensor, cut int) (int, error) {
	logits, err := e.Infer(x, cut)
	if err != nil {
		return 0, err
	}
	if len(logits) == 0 {
		return 0, errors.New("serving: empty logits")
	}
	best, bestV := 0, math.Inf(-1)
	for i, v := range logits {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best, nil
}
