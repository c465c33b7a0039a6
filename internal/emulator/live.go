package emulator

import (
	"fmt"
	"net"
	"time"

	"cadmc/internal/faultnet"
	"cadmc/internal/nn"
	"cadmc/internal/serving"
	"cadmc/internal/tensor"
)

// LiveStepMS is the virtual time between a live replay's requests: request i
// executes at clock i·LiveStepMS, the axis the chaos spec's outage windows
// are defined on.
const LiveStepMS = 100

// LiveOptions configures a live replay: unlike the analytic emulation and
// field modes, live mode ships real offload frames over a real loopback socket
// while faultnet injects the scenario's network faults, exercising the
// serving layer's retry, circuit-breaker and edge-fallback machinery end to
// end on a deterministic virtual clock.
type LiveOptions struct {
	// Inferences is the number of back-to-back requests (default: one per
	// input).
	Inferences int
	// Cut is the split layer shipped to the cloud on the healthy path.
	Cut int
	// Spec is the chaos applied to every client connection (outage windows,
	// resets, drops); derive one from a scenario with faultnet.FromScenario.
	Spec faultnet.Spec
	// Resilience tunes the client; its Now and Sleep are overridden to the
	// replay's virtual clock so the schedule stays exact.
	Resilience serving.ResilientOptions
}

// LiveResult aggregates one live replay.
type LiveResult struct {
	// Stats is the executor's per-request route bookkeeping.
	Stats serving.SplitStats
	// Channel is the resilient client's transport bookkeeping.
	Channel serving.ResilientStats
	// Routes records, per inference, where it completed.
	Routes []serving.Route
	// Logits holds each inference's output, for bit-exactness checks
	// against local execution.
	Logits [][]float64
	// FinalBreaker is the circuit position after the last inference.
	FinalBreaker serving.BreakerState
}

// LiveEdge is the edge half of a fault-injected offload session: an executor
// that degrades to edge-only inference instead of failing, over a resilient
// client whose connections all pass through the chaos spec. Fault schedule,
// breaker cooldown and backoff share one manual clock, so a caller that sets
// Clock before each request gets the same routes on every run.
type LiveEdge struct {
	Clock  *faultnet.ManualClock
	Client *serving.ResilientClient
	Exec   *serving.SplitExecutor
}

// NewLiveEdge wires the edge half for modelID served at addr; res's Now and
// Sleep are overridden to the virtual clock. The caller closes Client.
func NewLiveEdge(addr, modelID string, edge *nn.Net, spec faultnet.Spec, res serving.ResilientOptions) (*LiveEdge, error) {
	clock := faultnet.NewManualClock()
	// dial runs under the client's request lock, so dialSeq needs no extra
	// synchronisation; each connection gets a decorrelated fault stream.
	dialSeq := int64(0)
	dial := func() (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		s := spec
		s.Seed = spec.Seed + dialSeq*seedStride
		dialSeq++
		return faultnet.Wrap(conn, s, clock), nil
	}
	res.Now = clock.Now
	res.Sleep = func(time.Duration) {} // backoff is virtual: the clock only moves between inferences
	client, err := serving.NewResilientClient(dial, res)
	if err != nil {
		return nil, err
	}
	exec := &serving.SplitExecutor{Edge: edge, ModelID: modelID, Client: client}
	return &LiveEdge{Clock: clock, Client: client, Exec: exec}, nil
}

// RunLive replays inferences for an executable model over a real loopback
// offload channel wrapped in the chaos spec. Every inference must complete —
// offloaded when the channel is healthy, edge-only when it is not; any hard
// failure aborts the replay with an error.
func RunLive(model *nn.Net, inputs []*tensor.Tensor, opts LiveOptions) (*LiveResult, error) {
	if model == nil || len(inputs) == 0 {
		return nil, fmt.Errorf("emulator: live replay needs a model and at least one input")
	}
	if err := opts.Spec.Validate(); err != nil {
		return nil, err
	}
	if opts.Inferences <= 0 {
		opts.Inferences = len(inputs)
	}

	srv := serving.NewServer()
	addr, stopCloud, err := srv.ServeLoopback()
	if err != nil {
		return nil, err
	}
	defer func() { _ = stopCloud() }()
	if err := srv.Register("live", model); err != nil {
		return nil, err
	}
	live, err := NewLiveEdge(addr, "live", model, opts.Spec, opts.Resilience)
	if err != nil {
		return nil, err
	}
	defer func() { _ = live.Client.Close() }()

	out := &LiveResult{}
	for i := 0; i < opts.Inferences; i++ {
		live.Clock.Set(time.Duration(i) * LiveStepMS * time.Millisecond)
		logits, route, err := live.Exec.InferRoute(inputs[i%len(inputs)], opts.Cut)
		if err != nil {
			return nil, fmt.Errorf("emulator: live inference %d: %w", i, err)
		}
		out.Routes = append(out.Routes, route)
		out.Logits = append(out.Logits, logits)
	}
	out.Stats = live.Exec.Stats()
	out.Channel = live.Client.Stats()
	out.FinalBreaker = live.Client.BreakerState()
	return out, nil
}
