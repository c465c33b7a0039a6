package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cadmc/internal/core"
	"cadmc/internal/emulator"
	"cadmc/internal/faultnet"
	"cadmc/internal/gateway"
	"cadmc/internal/network"
	"cadmc/internal/nn"
	"cadmc/internal/serving"
	"cadmc/internal/telemetry"
	"cadmc/internal/tensor"
)

// The rig is the same on every commit; a later PR compares against numbers
// taken with exactly these settings.
const (
	gwWorkers     = 2
	gwMaxBatch    = 8
	gwMaxWait     = time.Millisecond
	gwQueueCap    = 4096
	sessions      = 16
	closedWindow  = 16
	inputPool     = 64
	setupBuilds   = 5
	repetitions   = 5
	checkedLogits = 32
	// A run is 50 periods long: five open-loop repetitions of six periods
	// and five closed-loop ones of four. The swing workload flips its class
	// at every period boundary inside a repetition, so each repetition spends
	// exactly half its time in each class.
	periodsPerRun  = 50
	openPeriods    = 6
	closedPeriods  = 4
	swingLowMbps   = 1.0
	swingHighMbps  = 16.0
	traceRingSlots = 1 << 16
)

var demoClasses = []float64{2, 8}

// servingSpec is one serving workload: which tree is served, through which
// route, at which fixed open-loop rate.
type servingSpec struct {
	name    string
	rateRPS float64
	// class is the bandwidth class served for the whole run; ignored when
	// swing is set.
	class int
	// offload gives every gateway worker an offload connection to the
	// in-process cloud server; latencyMS is injected on each of its writes.
	offload   bool
	latencyMS float64
	// swing flips the bandwidth class at every period boundary inside a
	// repetition.
	swing bool
	tree  func() (*core.ModelTree, error)
}

var servingSpecs = []servingSpec{
	{
		name: "offload_rtt", rateRPS: 150, class: 1, offload: true, latencyMS: 5,
		tree: func() (*core.ModelTree, error) { return gateway.DemoTree(demoClasses) },
	},
	{
		name: "edge_compute", rateRPS: 40, class: 1,
		tree: trainedVGGTree,
	},
	{
		name: "split_swing", rateRPS: 20, offload: true, swing: true,
		tree: func() (*core.ModelTree, error) { return alexNetTree(demoClasses) },
	},
}

// trainedVGGTree runs the paper's offline phase (Alg. 1 + Alg. 3) for one
// scenario and returns its model tree. The search budget is the default even
// for the smoke test: a shorter search ends on a tree whose class-1 variant
// is partitioned, and this workload is defined by its being edge-resident.
func trainedVGGTree() (*core.ModelTree, error) {
	ts, err := emulator.Train(emulator.ScenarioSpec{
		ModelName: "VGG11", DeviceName: "Phone", EnvName: "4G outdoor quick", TraceSeed: 1,
	}, emulator.DefaultTrainOptions())
	if err != nil {
		return nil, err
	}
	return ts.Tree, nil
}

// alexNetTree is gateway.DemoTree's shape over the zoo AlexNet: class 0 stays
// edge-resident, class 1 cuts after the first of three blocks.
func alexNetTree(classMbps []float64) (*core.ModelTree, error) {
	base, err := nn.Zoo("AlexNet", nn.CIFARInput, nn.CIFARClasses)
	if err != nil {
		return nil, err
	}
	if err := base.Normalize(); err != nil {
		return nil, err
	}
	blocks, err := base.SliceBlocks(3)
	if err != nil {
		return nil, err
	}
	b0, b1, b2 := base.Slice(blocks[0]), base.Slice(blocks[1]), base.Slice(blocks[2])
	tree := &core.ModelTree{
		Base:      base,
		Blocks:    blocks,
		ClassMbps: append([]float64(nil), classMbps...),
		RootClass: 0,
		Root: &core.TreeNode{
			BlockIdx: 0, Fork: -1, EdgeLayers: b0,
			Children: []*core.TreeNode{
				{
					BlockIdx: 1, Fork: 0, EdgeLayers: b1,
					Children: []*core.TreeNode{
						{BlockIdx: 2, Fork: 0, EdgeLayers: b2},
						{BlockIdx: 2, Fork: 1, CloudTail: b2},
					},
				},
				{BlockIdx: 1, Fork: 1, CloudTail: append(append([]nn.Layer(nil), b1...), b2...)},
			},
		},
	}
	if err := tree.Validate(); err != nil {
		return nil, err
	}
	return tree, nil
}

// squareWave is a network.Monitor whose estimate alternates between a poor
// and a good bandwidth: poll k, made at tMS = k, reads poor for even k and
// good for odd k, so every poll lands in the other class.
type squareWave struct{}

var _ network.Monitor = squareWave{}

func (squareWave) EstimateMbps(tMS float64) float64 {
	if int64(tMS)%2 == 0 {
		return swingLowMbps
	}
	return swingHighMbps
}

// rig is one built serving stack: cloud server, variant provider and gateway.
type rig struct {
	spec   servingSpec
	seed   int64
	clock  faultnet.Clock
	inputs []*tensor.Tensor
	tree   *core.ModelTree

	srv      *serving.Server
	srvErr   chan error
	addr     string
	variants map[string]*gateway.Variant // by branch signature
	gw       *gateway.Gateway
	swap     *gateway.SwapManager

	// polls counts the SwapManager.Poll calls made so far, pollUS how long
	// each took. Only the goroutine a repetition starts for them touches
	// either, and the repetition joins it before it returns.
	polls  int
	pollUS []float64

	// Set only on a traced rig.
	tracer   *telemetry.Tracer
	registry *telemetry.Registry
	taps     []*offloadTap
	// connWrites counts the writes on every worker's offload connection.
	connWrites atomic.Int64

	// buildMS is how long the cold ForClass of every class took in total.
	buildMS float64
}

// buildRig assembles a fresh stack and pushes one request through it. Every
// call builds everything again: tree, weights, manifests, server, gateway.
func buildRig(spec servingSpec, seed int64, traced bool) (*rig, error) {
	r := &rig{spec: spec, seed: seed, clock: faultnet.NewClock(), variants: make(map[string]*gateway.Variant)}
	tree, err := spec.tree()
	if err != nil {
		return nil, fmt.Errorf("%s: tree: %w", spec.name, err)
	}
	r.tree = tree
	r.inputs = makeInputs(seed, tree.Base.Input, inputPool)

	var register func(string, *nn.Net) error
	if spec.offload {
		r.srv = serving.NewServer()
		r.srv.IdleTimeout = 30 * time.Second
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		r.addr = lis.Addr().String()
		r.srvErr = make(chan error, 1)
		go func() { r.srvErr <- r.srv.Serve(lis) }()
		register = r.srv.Register
	}
	ok := false
	defer func() {
		if !ok {
			_, _ = r.close()
		}
	}()

	provider, err := gateway.NewVariantProvider(tree, seed, register)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	byClass := make([]*gateway.Variant, tree.K())
	for k := range byClass {
		v, err := provider.ForClass(k)
		if err != nil {
			return nil, fmt.Errorf("%s: variant for class %d: %w", spec.name, k, err)
		}
		byClass[k] = v
		r.variants[v.Sig] = v
	}
	r.buildMS = ms(time.Since(t0))

	cfg := gateway.Config{
		Workers:         gwWorkers,
		QueueCapacity:   gwQueueCap,
		PerSessionLimit: -1,
		MaxBatch:        gwMaxBatch,
		MaxWait:         gwMaxWait,
		Clock:           r.clock,
	}
	if traced {
		r.tracer = telemetry.NewTracer(traceRingSlots)
		r.registry = telemetry.NewRegistry()
		cfg.Tracer, cfg.Metrics = r.tracer, r.registry
	}
	if spec.offload {
		cfg.NewOffloader = func(worker int) (serving.Offloader, error) { return r.newOffloader(worker, traced) }
		cfg.CloseOffloader = closeOffloader
	}
	r.gw, err = gateway.New(cfg)
	if err != nil {
		return nil, err
	}
	if spec.swing {
		r.swap, err = gateway.NewSwapManager(r.gw, provider, squareWave{}, 0)
	} else {
		_, err = r.gw.SetVariant(byClass[spec.class])
	}
	if err != nil {
		return nil, err
	}
	if err := r.gw.Start(); err != nil {
		return nil, err
	}
	ch, err := r.gw.Submit(sessionName(0), r.inputs[0])
	if err != nil {
		return nil, fmt.Errorf("%s: first request: %w", spec.name, err)
	}
	if res := <-ch; res.Err != nil {
		return nil, fmt.Errorf("%s: first request: %w", spec.name, res.Err)
	}
	ok = true
	return r, nil
}

// newOffloader dials one worker's offload connection. On a traced rig the
// connection and the client are both wrapped so calls, writes and bytes are
// counted where they happen.
func (r *rig) newOffloader(worker int, traced bool) (serving.Offloader, error) {
	spec := faultnet.Spec{LatencyMS: r.spec.latencyMS, Seed: r.seed + int64(worker)*7919}
	client, err := serving.NewResilientClient(func() (net.Conn, error) {
		conn, err := net.Dial("tcp", r.addr)
		if err != nil {
			return nil, err
		}
		conn = faultnet.Wrap(conn, spec, nil)
		if traced {
			conn = countedConn{Conn: conn, writes: &r.connWrites}
		}
		return conn, nil
	}, serving.ResilientOptions{})
	if err != nil {
		return nil, err
	}
	if !traced {
		return client, nil
	}
	tap := &offloadTap{inner: client, clock: r.clock}
	r.taps = append(r.taps, tap)
	return tap, nil
}

func closeOffloader(o serving.Offloader) error {
	switch c := o.(type) {
	case *serving.ResilientClient:
		return c.Close()
	case *offloadTap:
		return c.inner.Close()
	}
	return nil
}

// swing flips the served class at every period boundary strictly inside
// (start, start+length): each Poll reads the other half of the square wave,
// re-walks the tree, verifies the variant and swaps it in beside the request
// traffic. It returns when the last boundary has passed.
func (r *rig) swing(start, length, period time.Duration) error {
	for at := start + period; at < start+length; at += period {
		if wait := at - r.clock.Now(); wait > 0 {
			time.Sleep(wait)
		}
		r.polls++
		t0 := r.clock.Now()
		swapped, err := r.swap.Poll(float64(r.polls))
		if err != nil {
			return err
		}
		if !swapped {
			return fmt.Errorf("%s: poll %d did not swap", r.spec.name, r.polls)
		}
		r.pollUS = append(r.pollUS, float64(r.clock.Now()-t0)/float64(time.Microsecond))
	}
	return nil
}

// close drains the gateway and shuts the stack down. It is safe on a rig
// that was only partly built.
func (r *rig) close() (gateway.Report, error) {
	var rep gateway.Report
	if r.gw != nil {
		rep = r.gw.Stop()
		r.gw = nil
	}
	if r.srv == nil {
		return rep, nil
	}
	err := r.srv.Close()
	if serveErr := <-r.srvErr; err == nil {
		err = serveErr
	}
	r.srv = nil
	return rep, err
}

// sessionName is the id request i is submitted under: 16 sessions, round
// robin.
func sessionName(i int) string { return sessionNames[i%sessions] }

var sessionNames = func() []string {
	names := make([]string, sessions)
	for i := range names {
		names[i] = fmt.Sprintf("session-%02d", i)
	}
	return names
}()

// offloadTap decorates a worker's offload client: one serving.offload span
// per call, keyed by the logits slice it returned so the span can be joined
// to the gateway.Result that carries the same slice.
type offloadTap struct {
	inner *serving.ResilientClient
	clock faultnet.Clock

	mu    sync.Mutex
	calls []offloadCall
}

type offloadCall struct {
	start, end time.Duration
	logits     *float64 // &logits[0] of the returned slice; nil on error
}

var (
	_ serving.Offloader = (*offloadTap)(nil)
	_ serving.Meterable = (*offloadTap)(nil)
)

func (t *offloadTap) Offload(modelID string, cut int, act *tensor.Tensor) ([]float64, error) {
	start := t.clock.Now()
	logits, err := t.inner.Offload(modelID, cut, act)
	call := offloadCall{start: start, end: t.clock.Now()}
	if err == nil && len(logits) > 0 {
		call.logits = &logits[0]
	}
	t.mu.Lock()
	t.calls = append(t.calls, call)
	t.mu.Unlock()
	return logits, err
}

// MeterWith lets the gateway meter the wrapped client into its registry, as
// it would an undecorated one.
func (t *offloadTap) MeterWith(sink serving.MetricSink) { t.inner.MeterWith(sink) }

func (t *offloadTap) drain() []offloadCall {
	t.mu.Lock()
	defer t.mu.Unlock()
	calls := t.calls
	t.calls = nil
	return calls
}

// countedConn counts the writes the codec hands to an offload connection.
type countedConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countedConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}
