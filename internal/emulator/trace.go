package emulator

import (
	"time"

	"cadmc/internal/serving"
	"cadmc/internal/telemetry"
)

const (
	// TraceRequestsPerPhase and TraceSessions size the traced replay: small
	// enough that every request's waterfall fits on a screen.
	TraceRequestsPerPhase = 4
	TraceSessions         = 4
	// TraceStep is the auto-clock increment per clock read. Every span
	// boundary in the waterfall is a multiple of it.
	TraceStep = time.Millisecond
)

// TraceRunResult is one traced replay's outcome. Exposition and Waterfalls
// are the determinism surface: two replays of the same seed must produce
// byte-identical values for both.
type TraceRunResult struct {
	Replay
	// Exposition is the registry's sorted text exposition after the run.
	Exposition string
	// Waterfalls renders every request's span waterfall, ordered by request;
	// Traces carries the same data structurally.
	Waterfalls string
	Traces     []telemetry.Trace
}

// RunTrace replays a small two-phase workload (TracePhaseMbps) through the
// gateway with every instrument attached and every timestamp taken from a
// deterministic auto-stepping clock: one worker, immediate dispatch, and
// strictly serialised submit→drain turn the clock-read sequence into a pure
// function of the seed, so the metrics exposition and the per-request trace
// waterfalls are bit-identical across replays — admission, batch, offload
// (or edge-only after the bandwidth collapses) and completion all land on
// exact auto-clock ticks. The offload channel is a real loopback TCP
// connection; only time is virtual. The seed drives the variant weights and
// the request inputs.
func RunTrace(seed int64) (*TraceRunResult, error) {
	clock := telemetry.NewAutoClock(TraceStep)
	tracer := telemetry.NewTracer(TraceRequestsPerPhase * len(TracePhaseMbps))
	r, err := newRig(rigConfig{
		seed:      seed,
		sessions:  TraceSessions,
		phaseMbps: TracePhaseMbps,
		perPhase:  TraceRequestsPerPhase,
		// One worker and batches of one, so dispatch is immediate: with
		// submit→drain serialised below, exactly one goroutine reads the
		// auto-clock at a time, which is what makes the replay's timeline
		// deterministic.
		workers:  1,
		maxBatch: 1,
		clock:    clock,
		tracer:   tracer,
		// Plain TCP (no wrap) — no fault injection, nothing nondeterministic
		// on the wire — and the shared auto-clock for the client's latency
		// metering.
		client: serving.ResilientOptions{Seed: seed, Now: clock.Now},
	})
	if err != nil {
		return nil, err
	}
	defer r.close()

	for phase := range TracePhaseMbps {
		r.poll(phase)
		for i := 0; i < TraceRequestsPerPhase; i++ {
			r.submit(phase, 1)
			// Drain before the next submit: the serialisation that pins the
			// clock-read order.
			r.drain()
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	out := &TraceRunResult{Replay: r.close()}
	out.Exposition = r.gw.Metrics().Snapshot().Text()
	out.Traces = tracer.Traces()
	out.Waterfalls = telemetry.Waterfalls(out.Traces)
	return out, nil
}
