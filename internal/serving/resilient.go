package serving

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"time"

	"cadmc/internal/tensor"
)

// Sentinel errors for the resilient offload path. SplitExecutor treats both
// as "channel unavailable" and degrades to edge-only inference.
var (
	// ErrCircuitOpen rejects a request without touching the network because
	// the circuit breaker is open.
	ErrCircuitOpen = errors.New("serving: offload circuit open")
	// ErrUnavailable reports that every bounded retry of a request failed at
	// the transport layer.
	ErrUnavailable = errors.New("serving: offload channel unavailable")
)

// ResilientOptions tunes the retry, backoff and circuit-breaker behaviour.
// The zero value of any field falls back to the default below.
type ResilientOptions struct {
	// Timeout bounds one attempt's round trip, handshake included (default
	// 2s); there is no wait-forever mode.
	Timeout time.Duration
	// MaxAttempts is the total number of tries per offload call — a single
	// activation or a whole batch (default 3); 1 gives a plain client that
	// reports the first transport failure.
	MaxAttempts int
	// BackoffBase and BackoffMax shape the exponential backoff between
	// attempts (defaults 20ms and 1s); the realised wait is jittered
	// uniformly in [d/2, d) to desynchronise a fleet of edge clients.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BreakerThreshold consecutive transport failures open the circuit
	// (default 4); BreakerCooldown later it half-opens for one probe
	// (default 500ms).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Seed drives the backoff jitter (default 1).
	Seed int64
	// Now is the clock the breaker cooldown reads; nil uses real monotonic
	// time. Tests and the live emulator inject a manual clock here.
	Now func() time.Duration
	// Sleep waits between attempts; nil uses time.Sleep. The live emulator
	// injects a no-op to keep virtual time exact.
	Sleep func(time.Duration)
	// Metrics, when set, receives per-offload counters and latency
	// observations under serving.offload.* / serving.breaker.* names, plus
	// wire frame bytes and encode/decode cost under serving.wire.*. Nil
	// disables metering (and skips the clock reads it would need).
	Metrics MetricSink
	// Wire configures the codec negotiation run on every (re-)dial. The
	// zero value keeps activations bit-exact float64.
	Wire WireConfig
}

// DefaultResilientOptions returns the production tuning.
func DefaultResilientOptions() ResilientOptions {
	return ResilientOptions{
		Timeout:          2 * time.Second,
		MaxAttempts:      3,
		BackoffBase:      20 * time.Millisecond,
		BackoffMax:       time.Second,
		BreakerThreshold: 4,
		BreakerCooldown:  500 * time.Millisecond,
		Seed:             1,
	}
}

func (o ResilientOptions) withDefaults() ResilientOptions {
	def := DefaultResilientOptions()
	if o.Timeout <= 0 {
		o.Timeout = def.Timeout
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = def.MaxAttempts
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = def.BackoffBase
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = def.BackoffMax
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = def.BreakerThreshold
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = def.BreakerCooldown
	}
	if o.Seed == 0 {
		o.Seed = def.Seed
	}
	if o.Sleep == nil {
		o.Sleep = time.Sleep
	}
	return o
}

// ResilientStats counts what the channel went through. Like the
// serving.offload.* metrics it counts calls — a batch of N is one offload,
// one retry unit — not items; SplitStats counts items.
type ResilientStats struct {
	// Offloads is the number of successful round trips.
	Offloads int64
	// Retries counts attempts beyond the first of their call.
	Retries int64
	// Redials counts connection (re-)establishments.
	Redials int64
	// RemoteErrors counts application-level rejections by the server.
	RemoteErrors int64
	// BreakerOpens counts circuit-breaker trips.
	BreakerOpens int64
	// Resyncs counts checksum-damaged frames recovered in place: the frame
	// boundary survived, the stream stayed aligned, and the attempt was
	// retried on the same connection without tripping the breaker.
	Resyncs int64
}

// ResilientClient is the edge side of the offload channel: one persistent
// connection, every read and write under a deadline. It redials
// automatically with exponential backoff and jitter, poisons and replaces
// its codec after any unrecoverable transport error (a desynchronized stream
// is never reused — the one exception is a checksum resync, where the frame
// boundary provably survived and the same connection carries the retry),
// bounds retries per call with idempotent request IDs, and trips a circuit
// breaker that stops hammering a dead cloud. The unit of everything it does
// is the frame, and a frame carries a whole micro-batch: one round trip, one
// retry unit, one resync unit, one breaker observation and one deadline
// budget per batch, with Offload the batch of one. It keeps exactly one frame
// in flight; use one client per concurrent stream.
type ResilientClient struct {
	opts ResilientOptions

	mu      sync.Mutex
	dial    func() (net.Conn, error)
	codec   *binCodec
	broken  bool
	closed  bool
	nextID  uint64
	rng     *rand.Rand
	breaker *Breaker
	stats   ResilientStats
}

// NewResilientClient builds a client over a dial function; the connection is
// established lazily on the first Offload, so construction never fails.
func NewResilientClient(dial func() (net.Conn, error), opts ResilientOptions) (*ResilientClient, error) {
	if dial == nil {
		return nil, errors.New("serving: resilient client needs a dial function")
	}
	opts = opts.withDefaults()
	return &ResilientClient{
		opts:    opts,
		dial:    dial,
		rng:     rand.New(rand.NewSource(opts.Seed)),
		breaker: NewBreaker(opts.BreakerThreshold, opts.BreakerCooldown, opts.Now),
	}, nil
}

// DialResilient builds a resilient client that (re-)dials addr over TCP.
func DialResilient(addr string, opts ResilientOptions) (*ResilientClient, error) {
	return NewResilientClient(func() (net.Conn, error) {
		return net.Dial("tcp", addr)
	}, opts)
}

// MeterWith attaches a metric sink unless one was already configured via
// ResilientOptions.Metrics — an explicit sink is never displaced. It
// implements Meterable so the gateway can meter per-worker channels it did
// not construct itself; a connection that is already live starts reporting
// serving.wire.* too.
func (c *ResilientClient) MeterWith(sink MetricSink) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.opts.Metrics != nil {
		return
	}
	c.opts.Metrics = sink
	if c.codec != nil {
		c.codec.metrics, c.codec.nowNS = sink, c.wireNowNS()
	}
}

// count and observe forward to the metric sink when one is attached.
// Callers hold c.mu.
func (c *ResilientClient) count(name string, delta int64) {
	if c.opts.Metrics != nil {
		c.opts.Metrics.Count(name, delta)
	}
}

func (c *ResilientClient) observe(name string, v float64) {
	if c.opts.Metrics != nil {
		c.opts.Metrics.Observe(name, v)
	}
}

// meterSuccess records one successful round trip: the success counter, the
// request latency (startNS was read iff a sink is attached) and the breaker
// settling closed.
func (c *ResilientClient) meterSuccess(startNS time.Duration) {
	if c.opts.Metrics == nil {
		return
	}
	c.opts.Metrics.Count(metricOffloadSuccess, 1)
	c.opts.Metrics.Observe(metricOffloadLatency, float64(c.now()-startNS)/float64(time.Millisecond))
	c.opts.Metrics.SetGauge(metricBreakerState, float64(BreakerClosed))
}

// meterFailure records one failed attempt and, when it tripped the breaker,
// the open transition.
func (c *ResilientClient) meterFailure(tripped bool) {
	if c.opts.Metrics == nil {
		return
	}
	if tripped {
		c.opts.Metrics.Count(metricBreakerOpens, 1)
		c.opts.Metrics.SetGauge(metricBreakerState, float64(BreakerOpen))
	}
}

// Offload ships the activation produced after layer cut of modelID and
// returns the cloud's logits: OffloadBatch with N = 1 and no budget, the same
// loop and the same frame.
func (c *ResilientClient) Offload(modelID string, cut int, act *tensor.Tensor) ([]float64, error) {
	return c.offload(modelID, cut, []*tensor.Tensor{act}, 0)
}

// OffloadBatch ships a micro-batch of same-shaped activations in one request
// frame — one conn.Write, one round trip — and returns one logits row per
// activation, in order, retrying transport failures up to MaxAttempts times
// with a fresh connection each time. The batch is retried, resynced, counted
// by the breaker and rejected by the server as a whole, so an error means no
// item completed: ErrCircuitOpen without touching the network while the
// breaker is open, ErrUnavailable when the attempts are exhausted, and a
// *RemoteError (never retried) when the server rejected the request itself.
//
// A positive budget bounds the whole call: every retry, backoff wait and
// round trip must fit inside it. Per-attempt deadlines are clipped to what
// remains, a backoff that would overrun the budget is not taken, and when the
// budget runs out the call returns ErrBudgetExhausted — which SplitExecutor
// sheds rather than falls back on, because a too-late answer has no fallback
// worth computing. A budget ≤ 0 sets no deadline beyond each attempt's
// Timeout.
func (c *ResilientClient) OffloadBatch(modelID string, cut int, acts []*tensor.Tensor, budget time.Duration) ([][]float64, error) {
	logits, err := c.offload(modelID, cut, acts, budget)
	if err != nil {
		return nil, err
	}
	return splitRows(logits, len(acts)), nil
}

// splitRows cuts a response's logits into its n rows. Each row is capped at
// its own length, so a caller appending to one cannot write into the next.
func splitRows(logits []float64, n int) [][]float64 {
	per := len(logits) / n
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = logits[i*per : (i+1)*per : (i+1)*per]
	}
	return rows
}

// offload is the one retry loop behind Offload and OffloadBatch: it ships
// acts as one frame and returns the response's logits, len(acts) rows back to
// back. The clock is read only where a positive budget or the metric sink
// needs it — an unbudgeted, unmetered call reads none — so replays on a
// stepping clock see the same read sequence whatever else is attached.
func (c *ResilientClient) offload(modelID string, cut int, acts []*tensor.Tensor, budget time.Duration) ([]float64, error) {
	if len(acts) == 0 {
		return nil, errors.New("serving: empty batch")
	}
	for _, act := range acts {
		if act == nil {
			return nil, errors.New("serving: nil activation")
		}
	}
	if !sameShapes(acts) {
		return nil, errors.New("serving: batch mixes activation shapes; one frame carries one")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errors.New("serving: resilient client closed")
	}
	budgeted := budget > 0
	var start time.Duration
	if budgeted || c.opts.Metrics != nil {
		start = c.now()
	}
	deadline := start + budget
	c.count(metricOffloadRequests, 1)
	c.nextID++
	req := &Request{ID: c.nextID, ModelID: modelID, Cut: cut, Shape: acts[0].Shape}
	var lastErr error
	for attempt := 0; attempt < c.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			wait := c.backoff(attempt)
			if budgeted && c.now()+wait >= deadline {
				break
			}
			c.stats.Retries++
			c.count(metricOffloadRetries, 1)
			c.opts.Sleep(wait)
		}
		timeout := c.opts.Timeout
		if budgeted {
			remaining := deadline - c.now()
			if remaining <= 0 {
				break
			}
			if timeout > remaining {
				timeout = remaining
			}
		}
		if !c.breaker.Allow() {
			c.count(metricOffloadRejectedOpen, 1)
			if lastErr != nil {
				return nil, fmt.Errorf("%w (last transport error: %v)", ErrCircuitOpen, lastErr)
			}
			return nil, ErrCircuitOpen
		}
		c.count(metricOffloadAttempts, 1)
		logits, err := c.attempt(req, acts, timeout)
		if err == nil {
			c.breaker.Success()
			c.stats.Offloads++
			c.meterSuccess(start)
			return logits, nil
		}
		var remote *RemoteError
		if errors.As(err, &remote) {
			// The transport round trip worked; the request was bad. Counts
			// for the breaker as a success and is not worth retrying.
			c.breaker.Success()
			c.stats.RemoteErrors++
			c.count(metricOffloadRemoteErrors, 1)
			return nil, err
		}
		if errors.Is(err, ErrFrameResync) {
			// A frame was damaged in flight but the stream stayed aligned:
			// retryable on the same connection, and not evidence of a dead
			// cloud — the breaker does not count it.
			c.stats.Resyncs++
			c.count(metricOffloadResyncs, 1)
			lastErr = err
			continue
		}
		tripped := c.breaker.Failure()
		if tripped {
			c.stats.BreakerOpens++
		}
		c.meterFailure(tripped)
		lastErr = err
	}
	if budgeted {
		c.count(metricOffloadBudget, 1)
		if lastErr != nil {
			return nil, fmt.Errorf("%w: %v", ErrBudgetExhausted, lastErr)
		}
		return nil, ErrBudgetExhausted
	}
	c.count(metricOffloadUnavailable, 1)
	return nil, fmt.Errorf("%w: %d attempts failed: %v", ErrUnavailable, c.opts.MaxAttempts, lastErr)
}

// now reads the injected clock, or real monotonic time.
func (c *ResilientClient) now() time.Duration {
	if c.opts.Now != nil {
		return c.opts.Now()
	}
	return time.Duration(time.Now().UnixNano())
}

// attempt performs one round trip — the whole batch out in one frame, its
// logit rows back in one — under the given per-attempt timeout, redialing and
// re-negotiating first if the previous codec was poisoned. The deadline is
// re-armed before every round trip, so nothing clears it afterwards. Callers
// hold c.mu.
func (c *ResilientClient) attempt(req *Request, acts []*tensor.Tensor, timeout time.Duration) ([]float64, error) {
	if err := c.ensure(timeout); err != nil {
		return nil, err
	}
	cd := c.codec
	if err := cd.conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		c.poison()
		return nil, fmt.Errorf("serving: set deadline: %w", err)
	}
	if err := cd.writeRequest(req, acts); err != nil {
		c.poison()
		return nil, err
	}
	var resp Response
	if err := cd.readResponse(&resp); err != nil {
		if errors.Is(err, ErrFrameResync) {
			// The damaged frame was consumed whole; the stream is aligned
			// and this same connection can carry the retry.
			return nil, err
		}
		c.poison()
		return nil, fmt.Errorf("serving: read response: %w", err)
	}
	if resp.ID != 0 && resp.ID != req.ID {
		c.poison()
		return nil, fmt.Errorf("serving: response answers request %d, want %d: stream desynchronized", resp.ID, req.ID)
	}
	if resp.Err != "" {
		return nil, &RemoteError{Msg: resp.Err}
	}
	if resp.Batch != len(acts) {
		c.poison()
		return nil, fmt.Errorf("serving: response carries %d logit rows for a batch of %d", resp.Batch, len(acts))
	}
	return resp.Logits, nil
}

// ensure establishes a fresh connection when there is none or the previous
// one was poisoned, and runs the codec handshake on it under the attempt
// timeout. Callers hold c.mu.
func (c *ResilientClient) ensure(timeout time.Duration) error {
	if c.codec != nil && !c.broken {
		return nil
	}
	if c.codec != nil {
		_ = c.codec.conn.Close()
		c.codec = nil
	}
	conn, err := c.dial()
	if err != nil {
		return fmt.Errorf("serving: redial: %w", err)
	}
	c.stats.Redials++
	c.count(metricOffloadRedials, 1)
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		_ = conn.Close()
		return fmt.Errorf("serving: set handshake deadline: %w", err)
	}
	cd, err := negotiate(conn, c.opts.Wire, c.opts.Metrics, c.wireNowNS())
	if err != nil {
		_ = conn.Close()
		return fmt.Errorf("serving: negotiate: %w", err)
	}
	c.codec = cd
	c.broken = false
	return nil
}

// wireNowNS is the codec metering clock: nil (no clock reads at all) when no
// sink is attached, the injected clock when one was provided, real time
// otherwise. Callers hold c.mu.
func (c *ResilientClient) wireNowNS() func() int64 {
	if c.opts.Metrics == nil {
		return nil
	}
	if now := c.opts.Now; now != nil {
		return func() int64 { return int64(now()) }
	}
	return func() int64 { return time.Now().UnixNano() }
}

// WireProtocol reports what the current connection negotiated — "binary-v2"
// or "binary-v2+f32" — or "" when no connection is live.
func (c *ResilientClient) WireProtocol() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.codec == nil {
		return ""
	}
	return c.codec.wireName()
}

// poison marks the current codec unusable and closes its connection; the
// next attempt redials. Callers hold c.mu.
func (c *ResilientClient) poison() {
	c.broken = true
	if c.codec != nil {
		_ = c.codec.conn.Close()
	}
}

// backoff returns the jittered exponential wait before the given attempt
// (attempt ≥ 1).
func (c *ResilientClient) backoff(attempt int) time.Duration {
	d := float64(c.opts.BackoffBase) * math.Pow(2, float64(attempt-1))
	if maxD := float64(c.opts.BackoffMax); d > maxD {
		d = maxD
	}
	return time.Duration(d/2 + d/2*c.rng.Float64())
}

// Stats returns a snapshot of the channel counters.
func (c *ResilientClient) Stats() ResilientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// BreakerState exposes the circuit position (for stats and tests).
func (c *ResilientClient) BreakerState() BreakerState {
	return c.breaker.State()
}

// Close releases the current connection, if any, and makes every further
// Offload fail fast.
func (c *ResilientClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.codec == nil {
		return nil
	}
	err := c.codec.conn.Close()
	c.codec = nil
	return err
}
