package emulator

import (
	"fmt"
	"math/rand"
	"net"
	"time"

	"cadmc/internal/faultnet"
	"cadmc/internal/gateway"
	"cadmc/internal/network"
	"cadmc/internal/serving"
	"cadmc/internal/telemetry"
	"cadmc/internal/tensor"
)

// What the replays fix. Each was an option once; none had a second value at
// any caller, so they are named here and cmd/emulate prints them.
var (
	// ClassMbps are the demo tree's two bandwidth-class levels.
	ClassMbps = []float64{2, 8}
	// GatewayPhaseMbps is low → high → low: two class changes, two hot-swaps.
	GatewayPhaseMbps = []float64{2, 8, 2}
	// IntegrityPhaseMbps is high → low → high: the partitioned variant serves,
	// is corrupted while the edge variant serves, and is asked for again.
	IntegrityPhaseMbps = []float64{8, 2, 8}
	// TracePhaseMbps is high → low: the first phase offloads, the second
	// collapses to edge-only, so one replay shows both span shapes and one
	// hot-swap.
	TracePhaseMbps = []float64{8, 2}
)

const (
	// RequestsPerSession sizes a gateway or integrity phase: each submits
	// this many requests per session, round-robin.
	RequestsPerSession = 2
	// phaseMS is one schedule phase in trace time; phase i is polled halfway
	// through, at (i+½)·phaseMS.
	phaseMS = 1000.0
	// seedStride decorrelates the fault streams of one replay's connections.
	seedStride = 7919
)

// rigConfig is what genuinely differs between the gateway replays; the rest
// of the stack is the same and newRig builds it once.
type rigConfig struct {
	// seed drives the variant weights; seed+1 drives the request inputs.
	seed     int64
	sessions int
	// phaseMbps is the bandwidth schedule, one level per phase; with perPhase
	// requests per phase it also sizes the queue, so a replay never sheds and
	// its accounting is exact.
	phaseMbps []float64
	perPhase  int
	workers   int
	maxBatch  int
	// clock is the gateway clock (nil is real time); tracer, when set, records
	// one trace per request on it.
	clock  faultnet.Clock
	tracer *telemetry.Tracer
	// stallTimeout, when positive, arms the worker supervisor (polling every
	// real millisecond) with this threshold on the gateway clock.
	stallTimeout time.Duration
	// client tunes every worker's resilient client; wrap, when set, decorates
	// each TCP connection that client dials (chaos, a write gate).
	client serving.ResilientOptions
	wrap   func(worker int, conn net.Conn) net.Conn
}

// GatewayRecord pins one request to its outcome: which session sent it,
// which phase it belonged to, the input it carried, and the result.
type GatewayRecord struct {
	Session string
	Phase   int
	Input   *tensor.Tensor
	Result  gateway.Result
	// SecondHalf marks requests submitted after their phase's swap poll: the
	// variant that serves them is deterministic even when the swap straddled
	// in-flight work.
	SecondHalf bool
}

// Replay is what every gateway replay accumulates and returns.
type Replay struct {
	// Report is the gateway's final accounting.
	Report  gateway.Report
	Records []GatewayRecord
	// Swaps is the swap manager's count of class changes.
	Swaps int64
	// SigCounts counts completions per serving variant signature.
	SigCounts map[string]int64
}

// rig is the one stack every gateway replay runs on: a loopback cloud, the
// demo tree's variant provider registering into it, a gateway whose workers
// each own a resilient client to it, and a swap manager driven by the
// bandwidth schedule. A replay is a plain script over submit, drain, poll
// and close. The first step that fails parks its error in err and turns the
// later ones into no-ops, so a script checks err where it would otherwise
// block and at its end.
type rig struct {
	Replay
	cfg       rigConfig
	provider  *gateway.VariantProvider
	gw        *gateway.Gateway
	mgr       *gateway.SwapManager
	stopCloud func() error

	rng *rand.Rand
	// pending[i] delivers Records[i].Result; drained counts those received.
	pending []<-chan gateway.Result
	drained int
	// polled is the last phase the script polled; the install inside
	// NewSwapManager does not count.
	polled int
	err    error
	closed bool
}

// newRig builds the stack and starts the gateway on the schedule's first
// variant. The caller owes one deferred close, whatever happens next.
func newRig(cfg rigConfig) (_ *rig, err error) {
	srv := serving.NewServer()
	addr, stopCloud, err := srv.ServeLoopback()
	if err != nil {
		return nil, err
	}
	// A local, not the named result: the failure returns below set that to nil
	// before this cleanup runs.
	r := &rig{cfg: cfg, stopCloud: stopCloud, rng: rand.New(rand.NewSource(cfg.seed + 1)), polled: -1}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	tree, err := gateway.DemoTree(ClassMbps)
	if err != nil {
		return nil, err
	}
	if r.provider, err = gateway.NewVariantProvider(tree, cfg.seed, srv.Register); err != nil {
		return nil, err
	}
	r.gw, err = gateway.New(gateway.Config{
		Workers:         cfg.workers,
		QueueCapacity:   cfg.perPhase * len(cfg.phaseMbps),
		PerSessionLimit: -1,
		MaxBatch:        cfg.maxBatch,
		MaxWait:         time.Millisecond, // a batch of one is full at once and never waits
		Clock:           cfg.clock,
		StallTimeout:    cfg.stallTimeout,
		SupervisorPoll:  time.Millisecond,
		Tracer:          cfg.tracer,
		NewOffloader: func(worker int) (serving.Offloader, error) {
			return serving.NewResilientClient(func() (net.Conn, error) {
				conn, err := net.Dial("tcp", addr)
				if err != nil || cfg.wrap == nil {
					return conn, err
				}
				return cfg.wrap(worker, conn), nil
			}, cfg.client)
		},
	})
	if err != nil {
		return nil, err
	}
	mon := &network.OracleMonitor{Trace: &network.Trace{PeriodMS: phaseMS, Mbps: cfg.phaseMbps}}
	if r.mgr, err = gateway.NewSwapManager(r.gw, r.provider, mon, phaseMS/2); err != nil {
		return nil, err
	}
	if err = r.gw.Start(); err != nil {
		return nil, err
	}
	return r, nil
}

// submit offers n requests of the given phase, round-robin over the sessions.
func (r *rig) submit(phase, n int) {
	for i := 0; i < n && r.err == nil; i++ {
		session := fmt.Sprintf("session-%03d", len(r.Records)%r.cfg.sessions)
		x := tensor.Randn(r.rng, 1, 3, 16, 16)
		done, err := r.gw.Submit(session, x)
		if err != nil {
			r.err = fmt.Errorf("emulator: submit (phase %d): %w", phase, err)
			return
		}
		r.Records = append(r.Records, GatewayRecord{
			Session: session, Phase: phase, Input: x, SecondHalf: r.polled == phase,
		})
		r.pending = append(r.pending, done)
	}
}

// drain waits for every request submitted since the last drain; one that
// completed with an error fails the replay, which is lossless by contract.
func (r *rig) drain() {
	for ; r.drained < len(r.Records) && r.err == nil; r.drained++ {
		rec := &r.Records[r.drained]
		rec.Result = <-r.pending[r.drained]
		if rec.Result.Err != nil {
			r.err = fmt.Errorf("emulator: request %d (phase %d): %w", r.drained, rec.Phase, rec.Result.Err)
		}
	}
}

// poll samples the schedule halfway through the phase; a class change swaps
// the gateway's variant.
func (r *rig) poll(phase int) {
	if r.err == nil {
		_, r.err = r.mgr.Poll((float64(phase) + 0.5) * phaseMS)
		r.polled = phase
	}
}

// close stops the gateway — draining what was submitted, joining the worker
// pool and the supervisor, closing every worker's client — then the cloud,
// and returns the finished replay. Only the first call acts, so a script
// defers it for the error paths and calls it for the result.
func (r *rig) close() Replay {
	if !r.closed {
		r.closed = true
		if r.mgr != nil { // else newRig failed before there was a gateway to stop
			r.Report, r.Swaps = r.gw.Stop(), r.mgr.Swaps()
			r.SigCounts = make(map[string]int64)
			for _, rec := range r.Records[:r.drained] {
				r.SigCounts[rec.Result.VariantSig]++
			}
		}
		// The cloud's only possible complaint is about a listener nobody will
		// use again.
		_ = r.stopCloud()
	}
	return r.Replay
}
