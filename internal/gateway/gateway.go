// Package gateway is the multi-session serving front end: where internal/
// serving executes one split inference at a time, the gateway holds many
// concurrent user sessions and amortises execution across them — the step
// from "a partition algorithm" to "a serving system" that the DNN-partition
// literature identifies as the gap between papers and deployments.
//
// The pipeline is queue → batcher → workers → swap manager:
//
//   - a bounded admission queue sheds load when full and enforces per-session
//     fairness (one hot session cannot monopolise the backlog);
//   - an adaptive micro-batcher coalesces queued requests into batches for
//     one batched nn forward pass — immediately when backlog is deep, after
//     a short max-wait when it is shallow;
//   - an edge worker pool executes batches against the current model-tree
//     variant, offloading the cloud half through per-worker resilient
//     clients;
//   - a swap manager watches a network.Monitor and, when the bandwidth class
//     changes, re-walks the model tree and atomically hot-swaps the composed
//     variant: batches formed after the swap run the new variant, in-flight
//     batches drain on the old one, and no request is ever dropped.
//
// Accounting is exact by construction: every request offered to Submit is
// either shed at admission or completed with a result — Admitted ==
// Completed + Shed holds at any drained point, across any number of swaps.
package gateway

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cadmc/internal/faultnet"
	"cadmc/internal/serving"
	"cadmc/internal/telemetry"
	"cadmc/internal/tensor"
)

// Sentinel admission errors. All of them mean "shed": the request was
// rejected at the front door and will not be executed.
var (
	// ErrQueueFull sheds a request because the bounded admission queue is at
	// capacity.
	ErrQueueFull = errors.New("gateway: admission queue full")
	// ErrSessionLimit sheds a request because its session already has the
	// maximum outstanding requests — per-session fairness.
	ErrSessionLimit = errors.New("gateway: session outstanding limit reached")
	// ErrClosed sheds a request because the gateway is shutting down.
	ErrClosed = errors.New("gateway: closed")
	// ErrBudgetExceeded completes a request whose deadline budget ran out
	// before a worker could execute it. Unlike the shed errors it is a
	// completion: the caller receives a definitive Result carrying it.
	ErrBudgetExceeded = errors.New("gateway: request budget exceeded")
)

// Config tunes the gateway.
type Config struct {
	// Workers is the edge worker pool size (default 4). Each worker has one
	// batch's round trip in flight at a time, so workers mostly overlap
	// network waits and the pool may usefully exceed GOMAXPROCS.
	Workers int
	// QueueCapacity bounds the admission queue (default 256).
	QueueCapacity int
	// PerSessionLimit caps one session's outstanding (queued or executing)
	// requests (default 8); 0 picks the default, negative disables.
	PerSessionLimit int
	// MaxBatch caps the micro-batch size (default 8).
	MaxBatch int
	// MaxWait is how long a worker holding a shallow backlog waits for
	// batch-mates before dispatching (default 2ms). Zero dispatches
	// immediately.
	MaxWait time.Duration
	// Clock timestamps requests for latency accounting; nil uses a real
	// monotonic clock.
	Clock faultnet.Clock
	// NewOffloader, when set, builds one offload channel per worker for the
	// cloud half of partitioned variants (per-worker channels keep the pool
	// from serialising on one connection's request lock). Nil runs
	// partitioned variants in edge-fallback mode.
	NewOffloader func(worker int) (serving.Offloader, error)
	// CloseOffloader releases a channel built by NewOffloader; nil calls the
	// Close of every channel that has one, as serving.ResilientClient does.
	CloseOffloader func(o serving.Offloader) error
	// StallTimeout arms the worker supervisor: a worker that has held the
	// same batch without a heartbeat for longer than this is declared wedged,
	// abandoned, and replaced, and its batch is re-queued onto the
	// replacement. Zero disables supervision.
	StallTimeout time.Duration
	// SupervisorPoll is the watchdog's check interval (default
	// StallTimeout/4 when supervision is enabled).
	SupervisorPoll time.Duration
	// RequestBudget is each request's admission-to-completion deadline
	// budget. Workers pre-shed requests whose budget has already expired
	// (completing them with ErrBudgetExceeded) and bound offload attempts by
	// the remaining budget. Zero means no budget.
	RequestBudget time.Duration
	// Metrics is the registry backing every gateway counter, gauge and
	// latency histogram (and, through the workers, the serving-layer offload
	// metrics). Nil builds a private registry, exposed via Gateway.Metrics —
	// the exported Report struct is filled from these instruments, so its
	// shape and semantics are unchanged.
	Metrics *telemetry.Registry
	// Tracer, when set, records one trace per admitted request: admission →
	// queue → batch → offload/local → completion, timed exclusively on the
	// gateway Clock so a deterministic clock yields bit-identical waterfalls.
	// Nil disables tracing (no per-request overhead beyond a nil check).
	Tracer *telemetry.Tracer
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueCapacity <= 0 {
		c.QueueCapacity = 256
	}
	if c.PerSessionLimit == 0 {
		c.PerSessionLimit = 8
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.Clock == nil {
		c.Clock = faultnet.NewClock()
	}
	if c.Metrics == nil {
		c.Metrics = telemetry.NewRegistry()
	}
	if c.StallTimeout > 0 && c.SupervisorPoll <= 0 {
		c.SupervisorPoll = c.StallTimeout / 4
		if c.SupervisorPoll <= 0 {
			c.SupervisorPoll = time.Millisecond
		}
	}
	return c
}

// Result is one completed request's outcome.
type Result struct {
	// RequestID echoes the request's unique admission id; tests use it to
	// prove no request is answered twice across worker restarts.
	RequestID uint64
	// Logits is the model output; nil when Err is set.
	Logits []float64
	// Route records where the inference completed.
	Route serving.Route
	// VariantSig identifies the composed tree variant that served the
	// request — requests in flight across a hot-swap report the old variant.
	VariantSig string
	// BatchSize is the micro-batch the request rode in.
	BatchSize int
	// QueueMS and TotalMS are the queue wait and the admission-to-completion
	// latency on the gateway clock.
	QueueMS float64
	TotalMS float64
	// Err reports a per-request execution failure. The request still counts
	// as completed: it received a definitive answer.
	Err error
}

// Report is a snapshot of the gateway's exact accounting.
type Report struct {
	// Admitted counts every request offered to Submit. Each one is either
	// Completed or Shed — the gateway never drops a request silently, so
	// Admitted == Completed + Shed once the gateway has drained.
	Admitted  int64
	Completed int64
	Shed      int64
	// Shed broken down by cause.
	ShedQueueFull int64
	ShedSession   int64
	ShedClosed    int64
	// Errored counts completions whose Result carried an error.
	Errored int64
	// Batches is the number of micro-batches dispatched; MeanBatch is
	// BatchedRequests/Batches.
	Batches         int64
	BatchedRequests int64
	MeanBatch       float64
	// Swaps counts variant hot-swaps after the initial variant was set.
	Swaps int64
	// Quarantines counts branch signatures quarantined after failing
	// pre-swap integrity verification.
	Quarantines int64
	// Rollbacks counts polls where the desired bandwidth class could not be
	// served (its variant quarantined) and the gateway fell back to a
	// healthy variant instead.
	Rollbacks int64
	// Restarts counts wedged workers the supervisor abandoned and replaced.
	Restarts int64
	// Requeued counts in-flight requests handed from a wedged worker to its
	// replacement. Each is still completed exactly once.
	Requeued int64
	// BudgetExpired counts requests completed with ErrBudgetExceeded because
	// their deadline budget ran out before execution.
	BudgetExpired int64
	// Routes aggregates the per-route executor stats across all workers and
	// variants.
	Routes serving.SplitStats
	// Latency percentiles (TotalMS) over completed requests.
	P50MS, P90MS, P99MS, MaxMS, MeanMS float64
	// MeanQueueMS is the mean admission-to-dispatch wait.
	MeanQueueMS float64
	// WireTxBytes / WireRxBytes are the offload channel's frame bytes as
	// metered by the per-worker codecs (client side of the link: requests
	// out, responses in).
	WireTxBytes int64
	WireRxBytes int64
	// BytesPerRequest is (WireTxBytes+WireRxBytes)/Completed — the wire
	// cost of one served request.
	BytesPerRequest float64
	// MeanEncodeNS / MeanDecodeNS are the mean per-frame encode and decode
	// costs of the offload codec, in nanoseconds.
	MeanEncodeNS float64
	MeanDecodeNS float64
}

// gwMetrics bundles the telemetry handles behind the gateway's exact
// accounting. Handles are resolved once at construction, so hot paths pay an
// atomic add — never a registry map lookup.
type gwMetrics struct {
	admitted      *telemetry.Counter
	completed     *telemetry.Counter
	shed          *telemetry.Counter
	shedQueueFull *telemetry.Counter
	shedSession   *telemetry.Counter
	shedClosed    *telemetry.Counter
	errored       *telemetry.Counter
	batches       *telemetry.Counter
	batchedReqs   *telemetry.Counter
	swaps         *telemetry.Counter
	quarantines   *telemetry.Counter
	rollbacks     *telemetry.Counter
	restarts      *telemetry.Counter
	requeued      *telemetry.Counter
	budgetExpired *telemetry.Counter

	latency       *telemetry.Histogram
	queueWait     *telemetry.Histogram
	batchSize     *telemetry.Histogram
	batchAssemble *telemetry.Histogram

	// Wire-codec instruments, written by the per-worker offload codecs
	// through the serving.MetricSink seam and read back for the Report's
	// bytes-per-request accounting. Resolving them here also pins their
	// nanosecond bucket bounds before the first codec Observe.
	wireTx     *telemetry.Counter
	wireRx     *telemetry.Counter
	wireEncode *telemetry.Histogram
	wireDecode *telemetry.Histogram
}

func newGWMetrics(r *telemetry.Registry) gwMetrics {
	return gwMetrics{
		admitted:      r.Counter("gateway.admitted"),
		completed:     r.Counter("gateway.completed"),
		shed:          r.Counter("gateway.shed"),
		shedQueueFull: r.Counter("gateway.shed.queue_full"),
		shedSession:   r.Counter("gateway.shed.session"),
		shedClosed:    r.Counter("gateway.shed.closed"),
		errored:       r.Counter("gateway.errored"),
		batches:       r.Counter("gateway.batches"),
		batchedReqs:   r.Counter("gateway.batched_requests"),
		swaps:         r.Counter("gateway.swaps"),
		quarantines:   r.Counter("gateway.quarantines"),
		rollbacks:     r.Counter("gateway.rollbacks"),
		restarts:      r.Counter("gateway.restarts"),
		requeued:      r.Counter("gateway.requeued"),
		budgetExpired: r.Counter("gateway.budget_expired"),
		latency:       r.Histogram("gateway.latency_ms", nil),
		queueWait:     r.Histogram("gateway.queue_ms", nil),
		batchSize:     r.Histogram("gateway.batch.size", []float64{1, 2, 4, 8, 16, 32, 64}),
		batchAssemble: r.Histogram("gateway.batch.assemble_ms", nil),
		wireTx:        r.Counter(serving.MetricWireTxBytes),
		wireRx:        r.Counter(serving.MetricWireRxBytes),
		wireEncode:    r.Histogram(serving.MetricWireEncodeNS, telemetry.DefaultNanosBuckets),
		wireDecode:    r.Histogram(serving.MetricWireDecodeNS, telemetry.DefaultNanosBuckets),
	}
}

// Gateway is the concurrent request front end. Build with New, set the
// initial variant (directly or through a SwapManager), Start, Submit from
// any number of goroutines, and Stop to drain.
type Gateway struct {
	cfg Config
	q   *admitQueue
	m   gwMetrics

	variant atomic.Pointer[Variant]

	wg      sync.WaitGroup
	started atomic.Bool

	nextID     atomic.Uint64
	nextWorker atomic.Int64

	supDone chan struct{}

	mu          sync.Mutex
	workers     []*worker
	retired     []*worker
	finalRoutes serving.SplitStats
}

// New builds a gateway. The initial variant must be set (SetVariant or a
// SwapManager) before Start.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if cfg.MaxBatch > cfg.QueueCapacity {
		return nil, fmt.Errorf("gateway: max batch %d exceeds queue capacity %d", cfg.MaxBatch, cfg.QueueCapacity)
	}
	return &Gateway{
		cfg: cfg,
		q:   newAdmitQueue(cfg.QueueCapacity, cfg.PerSessionLimit),
		m:   newGWMetrics(cfg.Metrics),
	}, nil
}

// Metrics returns the registry backing the gateway's instruments — the one
// from Config.Metrics, or the private registry built when none was supplied.
func (g *Gateway) Metrics() *telemetry.Registry { return g.cfg.Metrics }

// SetVariant atomically publishes the variant new batches execute; it
// returns the variant previously active (nil on first call). In-flight
// batches keep their old variant reference and drain on it — the swap never
// drops a request.
func (g *Gateway) SetVariant(v *Variant) (*Variant, error) {
	if v == nil {
		return nil, errors.New("gateway: nil variant")
	}
	old := g.variant.Swap(v)
	if old != nil {
		g.m.swaps.Inc()
	}
	return old, nil
}

// CurrentVariant returns the variant new batches would execute.
func (g *Gateway) CurrentVariant() *Variant { return g.variant.Load() }

// Swaps returns the number of hot-swaps performed so far.
func (g *Gateway) Swaps() int64 { return g.m.swaps.Value() }

// Start launches the worker pool. It fails if no variant is set.
func (g *Gateway) Start() error {
	if g.variant.Load() == nil {
		return errors.New("gateway: start before any variant is set")
	}
	if !g.started.CompareAndSwap(false, true) {
		return errors.New("gateway: already started")
	}
	g.mu.Lock()
	for i := 0; i < g.cfg.Workers; i++ {
		w, err := g.newWorker()
		if err != nil {
			// Tear down the workers already wired before reporting.
			for _, prev := range g.workers {
				prev.closeOffloader()
			}
			g.workers = nil
			g.started.Store(false)
			g.mu.Unlock()
			return err
		}
		g.workers = append(g.workers, w)
		g.wg.Add(1)
		go w.run(&g.wg, nil)
	}
	g.mu.Unlock()
	if g.cfg.StallTimeout > 0 {
		g.supDone = make(chan struct{})
		g.wg.Add(1)
		go g.supervise(&g.wg)
	}
	return nil
}

// newWorker allocates the next worker, wiring its offload channel. Caller
// holds g.mu.
func (g *Gateway) newWorker() (*worker, error) {
	id := int(g.nextWorker.Add(1) - 1)
	w := &worker{id: id, g: g, execs: make(map[string]*serving.SplitExecutor)}
	if g.cfg.NewOffloader != nil {
		off, err := g.cfg.NewOffloader(id)
		if err != nil {
			return nil, fmt.Errorf("gateway: offloader for worker %d: %w", id, err)
		}
		if m, ok := off.(serving.Meterable); ok {
			// Meter the per-worker channel into the gateway registry; a sink
			// the offloader was built with is never displaced.
			m.MeterWith(g.cfg.Metrics)
		}
		w.offloader = off
	}
	return w, nil
}

// Submit offers one request. On admission it returns a channel that will
// receive exactly one Result; on shedding it returns the shed cause
// (ErrQueueFull, ErrSessionLimit or ErrClosed).
func (g *Gateway) Submit(session string, x *tensor.Tensor) (<-chan Result, error) {
	g.m.admitted.Inc()
	if x == nil {
		// A nil input is a caller bug, not load: count it as shed with a
		// definitive error so accounting stays exact.
		g.m.shed.Inc()
		g.m.shedClosed.Inc()
		return nil, errors.New("gateway: nil input")
	}
	req := &request{
		id:      g.nextID.Add(1),
		session: session,
		input:   x,
		done:    make(chan Result, 1),
		enq:     g.cfg.Clock.Now(),
	}
	if g.cfg.Tracer != nil {
		// Begin before push: once the request is visible to a worker its
		// trace field must never be written again.
		req.trace = g.cfg.Tracer.Begin(req.id, session, durMS(req.enq))
	}
	if err := g.q.push(req); err != nil {
		g.m.shed.Inc()
		switch {
		case errors.Is(err, ErrQueueFull):
			g.m.shedQueueFull.Inc()
		case errors.Is(err, ErrSessionLimit):
			g.m.shedSession.Inc()
		default:
			g.m.shedClosed.Inc()
		}
		if req.trace != nil {
			// Shed traces are sealed immediately with the shed cause so the
			// ring shows them alongside served requests.
			req.trace.Finish(durMS(req.enq), err.Error())
		}
		return nil, err
	}
	return req.done, nil
}

// Stop closes admissions, drains every queued request through the workers,
// waits for the pool to exit, and returns the final report. Safe to call
// once; Submit calls racing with Stop are shed with ErrClosed.
func (g *Gateway) Stop() Report {
	g.q.close()
	if g.started.Load() {
		if g.supDone != nil {
			close(g.supDone)
		}
		g.wg.Wait()
	} else {
		// Never started: no workers will drain the backlog. Complete every
		// queued request with ErrClosed so Admitted == Completed + Shed
		// still holds.
		for req := range g.q.ch {
			g.complete(req, Result{Err: ErrClosed})
		}
	}
	g.mu.Lock()
	workers := append(g.workers, g.retired...)
	g.workers, g.retired = nil, nil
	for _, w := range workers {
		g.finalRoutes.Add(w.stats())
	}
	g.mu.Unlock()
	for _, w := range workers {
		w.closeOffloader()
	}
	return g.Report()
}

// Report snapshots the accounting counters and latency distribution.
func (g *Gateway) Report() Report {
	r := Report{
		Admitted:        g.m.admitted.Value(),
		Completed:       g.m.completed.Value(),
		Shed:            g.m.shed.Value(),
		ShedQueueFull:   g.m.shedQueueFull.Value(),
		ShedSession:     g.m.shedSession.Value(),
		ShedClosed:      g.m.shedClosed.Value(),
		Errored:         g.m.errored.Value(),
		Batches:         g.m.batches.Value(),
		BatchedRequests: g.m.batchedReqs.Value(),
		Swaps:           g.m.swaps.Value(),
		Quarantines:     g.m.quarantines.Value(),
		Rollbacks:       g.m.rollbacks.Value(),
		Restarts:        g.m.restarts.Value(),
		Requeued:        g.m.requeued.Value(),
		BudgetExpired:   g.m.budgetExpired.Value(),
	}
	if r.Batches > 0 {
		r.MeanBatch = float64(r.BatchedRequests) / float64(r.Batches)
	}
	g.mu.Lock()
	for _, w := range g.workers {
		r.Routes.Add(w.stats())
	}
	for _, w := range g.retired {
		r.Routes.Add(w.stats())
	}
	if g.workers == nil {
		// Stopped: workers were detached after draining; their executors'
		// final stats were folded into finalRoutes.
		r.Routes.Add(g.finalRoutes)
	}
	g.mu.Unlock()
	lat := g.m.latency.Snapshot()
	r.P50MS, r.P90MS, r.P99MS = lat.P50, lat.P90, lat.P99
	r.MaxMS, r.MeanMS = lat.Max, lat.Mean
	r.MeanQueueMS = g.m.queueWait.Snapshot().Mean
	r.WireTxBytes = g.m.wireTx.Value()
	r.WireRxBytes = g.m.wireRx.Value()
	if r.Completed > 0 {
		r.BytesPerRequest = float64(r.WireTxBytes+r.WireRxBytes) / float64(r.Completed)
	}
	r.MeanEncodeNS = g.m.wireEncode.Snapshot().Mean
	r.MeanDecodeNS = g.m.wireDecode.Snapshot().Mean
	return r
}

// Percentile returns the q-quantile of an ascending-sorted sample set by
// linear interpolation. It is total: an empty set or a NaN q yields 0, and
// q is clamped into [0, 1] — a caller asking for the "110th percentile"
// gets the max, never an out-of-range read or an extrapolated value. It is
// the telemetry histogram quantile — one implementation serves both paths.
func Percentile(sorted []float64, q float64) float64 {
	return telemetry.Quantile(sorted, q)
}

// complete delivers one result and updates accounting. The settled CAS makes
// it exactly-once per request no matter how many workers attempt it: after a
// restart both the wedged original and its replacement may finish the same
// request, and whichever lands first wins while the other becomes a no-op.
func (g *Gateway) complete(req *request, res Result) bool {
	if !req.settled.CompareAndSwap(false, true) {
		return false
	}
	now := g.cfg.Clock.Now()
	res.RequestID = req.id
	res.QueueMS = durMS(time.Duration(req.dispatch.Load()) - req.enq)
	res.TotalMS = durMS(now - req.enq)
	g.q.release(req.session)
	g.m.completed.Inc()
	if res.Err != nil {
		g.m.errored.Inc()
	}
	g.m.latency.Observe(res.TotalMS)
	g.m.queueWait.Observe(res.QueueMS)
	if req.trace != nil {
		msg := ""
		if res.Err != nil {
			msg = res.Err.Error()
		}
		req.trace.Finish(durMS(now), msg)
	}
	req.done <- res
	return true
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
