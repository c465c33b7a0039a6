package emulator

import (
	"fmt"
	"math/rand"
	"net"
	"time"

	"cadmc/internal/faultnet"
	"cadmc/internal/gateway"
	"cadmc/internal/serving"
	"cadmc/internal/telemetry"
	"cadmc/internal/tensor"
)

// GatewayOptions sizes one multi-session gateway replay: many sessions
// submit concurrently through the gateway while the bandwidth schedule
// drives hot-swaps between composed model-tree variants.
type GatewayOptions struct {
	// Sessions is the number of concurrent user sessions (default 64).
	Sessions int
	// RequestsPerPhase is how many requests each phase submits, spread
	// round-robin over the sessions (default 2·Sessions).
	RequestsPerPhase int
	// PhaseMbps is the piecewise-constant bandwidth schedule, one level per
	// phase (default {low, high, low} of ClassMbps). Each class change
	// triggers exactly one hot-swap.
	PhaseMbps []float64
	// ClassMbps are the demo tree's bandwidth-class levels (default {2, 8}).
	ClassMbps []float64
	// Seed drives the variant weights and the request inputs.
	Seed int64
	// Workers, MaxBatch and MaxWait tune the gateway (defaults 8, 8, 1ms).
	Workers  int
	MaxBatch int
	MaxWait  time.Duration
	// StraddleSwaps, when true, performs each swap while the first half of
	// the phase's requests is still in flight, proving the drain guarantee;
	// when false each phase drains before the next poll.
	StraddleSwaps bool
}

func (o GatewayOptions) withDefaults() GatewayOptions {
	if o.Sessions <= 0 {
		o.Sessions = 64
	}
	if o.RequestsPerPhase <= 0 {
		o.RequestsPerPhase = 2 * o.Sessions
	}
	if len(o.ClassMbps) == 0 {
		o.ClassMbps = []float64{2, 8}
	}
	if len(o.PhaseMbps) == 0 {
		o.PhaseMbps = []float64{o.ClassMbps[0], o.ClassMbps[len(o.ClassMbps)-1], o.ClassMbps[0]}
	}
	if o.Workers <= 0 {
		o.Workers = 8
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 8
	}
	if o.MaxWait <= 0 {
		o.MaxWait = time.Millisecond
	}
	return o
}

// GatewayRecord pins one request to its outcome: which session sent it,
// which phase it belonged to, the input it carried, and the result.
type GatewayRecord struct {
	Session string
	Phase   int
	Input   *tensor.Tensor
	Result  gateway.Result
	// SecondHalf marks requests submitted after the phase's swap poll; in
	// straddle mode their serving variant is deterministic.
	SecondHalf bool
}

// GatewayRunResult is one gateway replay's full outcome.
type GatewayRunResult struct {
	Report  gateway.Report
	Records []GatewayRecord
	// Swaps is the swap manager's count of class changes.
	Swaps int64
	// SigCounts counts completions per serving variant signature.
	SigCounts map[string]int64
	// WallMS is the replay's real duration, for throughput computation.
	WallMS float64
	// Metrics is the gateway registry's final snapshot: every gateway.* and
	// serving.* instrument the replay touched.
	Metrics telemetry.Snapshot
	// Options echoes the fully defaulted options the replay ran under.
	Options GatewayOptions
}

// scheduleMonitor replays a piecewise-constant bandwidth schedule: phase i
// spans [i·1000, (i+1)·1000) ms of trace time.
type scheduleMonitor struct {
	phaseMbps []float64
}

// EstimateMbps returns the scheduled bandwidth at trace time tMS.
func (m *scheduleMonitor) EstimateMbps(tMS float64) float64 {
	i := int(tMS / 1000)
	if i < 0 {
		i = 0
	}
	if i >= len(m.phaseMbps) {
		i = len(m.phaseMbps) - 1
	}
	return m.phaseMbps[i]
}

// phaseTime returns the trace time at which phase i's bandwidth is polled.
func phaseTime(i int) float64 { return float64(i)*1000 + 500 }

// RunGateway replays a multi-session workload through the gateway over a
// real loopback offload channel: the demo model tree supplies the variants,
// a scripted bandwidth schedule drives the swap manager, and every phase's
// requests flow through admission, micro-batching and the worker pool. The
// replay is lossless by contract — every submitted request completes — and
// the result carries enough to verify bit-exactness out-of-band.
func RunGateway(opts GatewayOptions) (*GatewayRunResult, error) {
	opts = opts.withDefaults()
	tree, err := gateway.DemoTree(opts.ClassMbps)
	if err != nil {
		return nil, err
	}

	srv := serving.NewServer()
	srv.IdleTimeout = 10 * time.Second
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("emulator: gateway listen: %w", err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(lis) }()
	defer func() {
		_ = srv.Close()
		<-serveDone
	}()
	addr := lis.Addr().String()

	provider, err := gateway.NewVariantProvider(tree, opts.Seed, srv.Register)
	if err != nil {
		return nil, err
	}
	registry := telemetry.NewRegistry()
	gw, err := gateway.New(gateway.Config{
		Workers: opts.Workers,
		Metrics: registry,
		// The queue never sheds in a replay: capacity covers the maximum
		// possible backlog so the accounting assertion is exact.
		QueueCapacity:   opts.RequestsPerPhase * len(opts.PhaseMbps),
		PerSessionLimit: -1,
		MaxBatch:        opts.MaxBatch,
		MaxWait:         opts.MaxWait,
		NewOffloader: func(int) (serving.Offloader, error) {
			return serving.DialResilient(addr, serving.ResilientOptions{})
		},
		CloseOffloader: func(o serving.Offloader) error {
			if c, ok := o.(*serving.ResilientClient); ok {
				return c.Close()
			}
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	mon := &scheduleMonitor{phaseMbps: opts.PhaseMbps}
	mgr, err := gateway.NewSwapManager(gw, provider, mon, phaseTime(0))
	if err != nil {
		return nil, err
	}
	if err := gw.Start(); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(opts.Seed + 1))
	records := make([]GatewayRecord, 0, opts.RequestsPerPhase*len(opts.PhaseMbps))
	chans := make([]<-chan gateway.Result, 0, cap(records))
	clk := faultnet.NewClock()

	submit := func(phase, n int, secondHalf bool) error {
		for i := 0; i < n; i++ {
			session := fmt.Sprintf("session-%03d", len(records)%opts.Sessions)
			x := tensor.Randn(rng, 1, 3, 16, 16)
			ch, err := gw.Submit(session, x)
			if err != nil {
				return fmt.Errorf("emulator: gateway submit (phase %d): %w", phase, err)
			}
			records = append(records, GatewayRecord{Session: session, Phase: phase, Input: x, SecondHalf: secondHalf})
			chans = append(chans, ch)
		}
		return nil
	}
	drainFrom := func(lo int) {
		for i := lo; i < len(chans); i++ {
			records[i].Result = <-chans[i]
		}
	}

	drained := 0
	for phase := range opts.PhaseMbps {
		half := opts.RequestsPerPhase / 2
		if opts.StraddleSwaps {
			// First half is in flight while the swap poll runs: the drain
			// guarantee is exercised on every class change.
			if err := submit(phase, half, false); err != nil {
				return nil, err
			}
			if _, err := mgr.Poll(phaseTime(phase)); err != nil {
				return nil, err
			}
			if err := submit(phase, opts.RequestsPerPhase-half, true); err != nil {
				return nil, err
			}
			drainFrom(drained)
			drained = len(chans)
			continue
		}
		if _, err := mgr.Poll(phaseTime(phase)); err != nil {
			return nil, err
		}
		if err := submit(phase, opts.RequestsPerPhase, true); err != nil {
			return nil, err
		}
		drainFrom(drained)
		drained = len(chans)
	}
	wallMS := float64(clk.Now()) / float64(time.Millisecond)
	rep := gw.Stop()

	out := &GatewayRunResult{
		Report:    rep,
		Records:   records,
		Swaps:     mgr.Swaps(),
		SigCounts: make(map[string]int64),
		WallMS:    wallMS,
		Metrics:   registry.Snapshot(),
		Options:   opts,
	}
	for i := range records {
		if records[i].Result.Err != nil {
			return nil, fmt.Errorf("emulator: gateway request %d (phase %d): %w",
				i, records[i].Phase, records[i].Result.Err)
		}
		out.SigCounts[records[i].Result.VariantSig]++
	}
	return out, nil
}
