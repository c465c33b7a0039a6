package emulator

// GatewayOptions sizes one multi-session gateway replay: many sessions
// submit concurrently through the gateway while GatewayPhaseMbps drives
// hot-swaps between composed model-tree variants.
type GatewayOptions struct {
	// Sessions is the number of concurrent user sessions (default 64).
	Sessions int
	// Seed drives the variant weights and the request inputs.
	Seed int64
	// StraddleSwaps, when true, performs each swap while the first half of
	// the phase's requests is still in flight, proving the drain guarantee;
	// when false each phase drains before the next poll.
	StraddleSwaps bool
}

// GatewayRunResult is one gateway replay's full outcome.
type GatewayRunResult struct {
	Replay
	// Options echoes the defaulted options the replay ran under.
	Options GatewayOptions
}

// RunGateway replays a multi-session workload through the gateway over a
// real loopback offload channel: the demo model tree supplies the variants,
// the scripted bandwidth schedule drives the swap manager, and every phase's
// requests flow through admission, micro-batching (up to 8, 1 ms max wait)
// and a pool of 8 workers. The replay is lossless by contract — every
// submitted request completes — and the result carries enough to verify
// bit-exactness out-of-band.
func RunGateway(opts GatewayOptions) (*GatewayRunResult, error) {
	if opts.Sessions <= 0 {
		opts.Sessions = 64
	}
	perPhase := RequestsPerSession * opts.Sessions
	r, err := newRig(rigConfig{
		seed:      opts.Seed,
		sessions:  opts.Sessions,
		phaseMbps: GatewayPhaseMbps,
		perPhase:  perPhase,
		workers:   8,
		maxBatch:  8,
	})
	if err != nil {
		return nil, err
	}
	defer r.close()

	// Straddling puts the first half of each phase in flight while the swap
	// poll runs: the drain guarantee is exercised on every class change.
	inFlight := 0
	if opts.StraddleSwaps {
		inFlight = perPhase / 2
	}
	for phase := range GatewayPhaseMbps {
		r.submit(phase, inFlight)
		r.poll(phase)
		r.submit(phase, perPhase-inFlight)
		r.drain()
	}
	if r.err != nil {
		return nil, r.err
	}
	return &GatewayRunResult{Replay: r.close(), Options: opts}, nil
}
