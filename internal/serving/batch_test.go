package serving

import (
	"errors"
	"math"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cadmc/internal/nn"
	"cadmc/internal/tensor"
)

// itemOffloader hides everything but Offload, leaving SplitExecutor the
// per-item path it keeps for offloaders that cannot batch.
type itemOffloader struct{ Offloader }

// A batched split inference must return exactly what per-request inference
// returns, item for item, on both the edge-only and offloaded routes.
func TestInferBatchMatchesSequential(t *testing.T) {
	model := testNet(t, 61)
	addr := startServer(t, "batch", model)
	client, err := dialPlain(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()
	exec := &SplitExecutor{Edge: model, ModelID: "batch", Client: client}
	rng := rand.New(rand.NewSource(62))
	xs := make([]*tensor.Tensor, 6)
	for i := range xs {
		xs[i] = tensor.Randn(rng, 1, 3, 12, 12)
	}
	n := len(model.Model.Layers)
	// One round trip per offloaded batch through the client itself, one per
	// item through an offloader that only has Offload: same outcomes.
	for _, batched := range []bool{true, false} {
		if !batched {
			exec.Client = itemOffloader{client}
		}
		before := client.Stats().Offloads
		for _, cut := range []int{2, n - 1} {
			outcomes, err := exec.InferBatch(xs, cut, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(outcomes) != len(xs) {
				t.Fatalf("got %d outcomes for %d inputs", len(outcomes), len(xs))
			}
			roundTrips := client.Stats().Offloads
			for i, x := range xs {
				want, wantRoute, err := exec.InferRoute(x, cut)
				if err != nil {
					t.Fatal(err)
				}
				got := outcomes[i]
				if got.Err != nil {
					t.Fatalf("cut %d item %d: %v", cut, i, got.Err)
				}
				if got.Route != wantRoute {
					t.Fatalf("cut %d item %d: route %s, want %s", cut, i, got.Route, wantRoute)
				}
				for j := range want {
					if got.Logits[j] != want[j] { //cadmc:allow floateq — bit-exactness is the contract under test
						t.Fatalf("cut %d item %d logit %d differs", cut, i, j)
					}
				}
			}
			wantTrips := int64(len(xs))
			if batched {
				wantTrips = 1
			}
			if cut == 2 && roundTrips-before != wantTrips {
				t.Fatalf("batched=%v: %d inputs cost %d round trips, want %d", batched, len(xs), roundTrips-before, wantTrips)
			}
		}
	}
	st := exec.Stats()
	if st.InFlight != 0 {
		t.Fatalf("drained executor reports %d in flight", st.InFlight)
	}
}

// TestOffloadBatchMatchesSingles: a batch of eight in one frame returns, row
// for row and bit for bit, what eight single offloads return and what the
// suffix computes locally from the activation the server saw — at one core
// and at four, bit-exact float64 and float32-narrowed on the wire.
func TestOffloadBatchMatchesSingles(t *testing.T) {
	model := testNet(t, 91)
	srv, addr := startServerHandle(t, "m", model)
	rng := rand.New(rand.NewSource(92))
	const n, cut = 8, 2
	acts := make([]*tensor.Tensor, n)
	for i := range acts {
		var err error
		if acts[i], err = model.ForwardRange(tensor.Randn(rng, 1, 3, 12, 12), 0, cut+1); err != nil {
			t.Fatal(err)
		}
	}
	var wantServed int64
	for _, procs := range []int{1, 4} {
		for _, narrow := range []bool{false, true} {
			prev := runtime.GOMAXPROCS(procs)
			client, err := DialResilient(addr, ResilientOptions{MaxAttempts: 1, Wire: WireConfig{NarrowActivations: narrow}})
			if err != nil {
				t.Fatal(err)
			}
			rows, err := client.OffloadBatch("m", cut, acts, 0)
			if err != nil {
				t.Fatalf("procs=%d narrow=%v: %v", procs, narrow, err)
			}
			if len(rows) != n {
				t.Fatalf("got %d rows for %d activations", len(rows), n)
			}
			for i, act := range acts {
				single, err := client.Offload("m", cut, act)
				if err != nil {
					t.Fatal(err)
				}
				seen := act
				if narrow {
					seen = tensor.New(act.Shape...)
					for j, v := range act.Data {
						seen.Data[j] = float64(float32(v))
					}
				}
				local, err := model.ForwardFrom(seen, cut+1)
				if err != nil {
					t.Fatal(err)
				}
				if len(rows[i]) != len(local.Data) || len(single) != len(local.Data) {
					t.Fatalf("item %d: %d batched / %d single logits, want %d", i, len(rows[i]), len(single), len(local.Data))
				}
				for j, w := range local.Data {
					if math.Float64bits(rows[i][j]) != math.Float64bits(w) || math.Float64bits(single[j]) != math.Float64bits(w) {
						t.Fatalf("procs=%d narrow=%v item %d logit %d: batched %v, single %v, local %v",
							procs, narrow, i, j, rows[i][j], single[j], w)
					}
				}
			}
			if st := client.Stats(); st.Offloads != 1+n || st.Redials != 1 {
				t.Fatalf("stats = %+v, want %d round trips on one connection", st, 1+n)
			}
			_ = client.Close()
			runtime.GOMAXPROCS(prev)
			// The server counts items, not frames.
			wantServed += 2 * n
			if served, failed := srv.Stats(); served != wantServed || failed != 0 {
				t.Fatalf("server stats = %d served / %d failed, want %d/0", served, failed, wantServed)
			}
		}
	}
}

// TestOffloadBatchRejectsAsAUnit: what the client refuses before the wire
// and what the server refuses after it both fail the whole batch, the latter
// as one remote error on a connection left usable.
func TestOffloadBatchRejectsAsAUnit(t *testing.T) {
	model := testNet(t, 93)
	srv, addr := startServerHandle(t, "m", model)
	client, err := dialPlain(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	a, b := tensor.New(3, 12, 12), tensor.New(3, 12, 12)
	for name, acts := range map[string][]*tensor.Tensor{
		"empty":        nil,
		"nil-item":     {a, nil},
		"mixed-shapes": {a, tensor.New(3, 6, 6)},
	} {
		if _, err := client.OffloadBatch("m", -1, acts, 0); err == nil {
			t.Fatalf("%s batch was accepted", name)
		}
	}
	if st := client.Stats(); st.Redials != 0 {
		t.Fatalf("a batch refused before the wire dialled %d times", st.Redials)
	}
	var remote *RemoteError
	if _, err := client.OffloadBatch("zebra", -1, []*tensor.Tensor{a, b}, 0); !errors.As(err, &remote) {
		t.Fatalf("unknown model: err = %v, want a *RemoteError", err)
	}
	if rows, err := client.OffloadBatch("m", -1, []*tensor.Tensor{a, b}, 0); err != nil || len(rows) != 2 {
		t.Fatalf("after a remote error: %d rows, %v", len(rows), err)
	}
	if served, failed := srv.Stats(); served != 2 || failed != 2 {
		t.Fatalf("server stats = %d served / %d failed, want 2/2 (items, not frames)", served, failed)
	}
	if st := client.Stats(); st.Redials != 1 || st.RemoteErrors != 1 {
		t.Fatalf("stats = %+v, want one connection and one remote error", st)
	}
}

// stalledCloud listens on loopback, accepts every connection and never
// answers on any of them, until the test ends.
func stalledCloud(t *testing.T) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var held []net.Conn
	var heldMu sync.Mutex
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			heldMu.Lock()
			held = append(held, conn)
			heldMu.Unlock()
		}
	}()
	t.Cleanup(func() {
		_ = lis.Close()
		heldMu.Lock()
		defer heldMu.Unlock()
		for _, conn := range held {
			_ = conn.Close()
		}
	})
	return lis.Addr().String()
}

// stalledClient dials a stalled cloud with the given per-attempt timeout and
// attempt count. Its clock is real time plus whatever the injected Sleep was
// asked to wait: stalls cost what they cost, backoff costs nothing real.
func stalledClient(t *testing.T, timeout time.Duration, attempts int) (*ResilientClient, func() time.Duration) {
	t.Helper()
	var slept atomic.Int64
	begin := time.Now()
	now := func() time.Duration { return time.Since(begin) + time.Duration(slept.Load()) }
	client, err := DialResilient(stalledCloud(t), ResilientOptions{
		Timeout:          timeout,
		MaxAttempts:      attempts,
		BackoffBase:      10 * time.Millisecond,
		BackoffMax:       10 * time.Millisecond,
		BreakerThreshold: 1 << 20,
		Now:              now,
		Sleep:            func(d time.Duration) { slept.Add(int64(d)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })
	return client, now
}

// TestInferBatchBudgetCoversWholeBatch is the regression for the budget
// overrun: against a cloud that accepts and never answers, a batch of eight
// must shed — every item, ErrBudgetExhausted — within ONE budget on the
// client's own clock, not one budget per item.
func TestInferBatchBudgetCoversWholeBatch(t *testing.T) {
	const budget = 240 * time.Millisecond
	client, now := stalledClient(t, 30*time.Millisecond, 1000)
	model := testNet(t, 95)
	exec := &SplitExecutor{Edge: model, ModelID: "m", Client: client}
	rng := rand.New(rand.NewSource(96))
	xs := make([]*tensor.Tensor, 8)
	for i := range xs {
		xs[i] = tensor.Randn(rng, 1, 3, 12, 12)
	}
	start := now()
	outcomes, err := exec.InferBatch(xs, 2, budget)
	elapsed := now() - start
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outcomes {
		if !errors.Is(o.Err, ErrBudgetExhausted) || o.Route != 0 {
			t.Fatalf("item %d: route %v, err %v; want shed with ErrBudgetExhausted", i, o.Route, o.Err)
		}
	}
	// One budget, plus slack for a loaded machine — nowhere near the eight a
	// per-item budget would allow.
	if elapsed > 2*budget {
		t.Fatalf("batch of %d held the executor for %v against a budget of %v", len(xs), elapsed, budget)
	}
	if st := client.Stats(); st.Offloads != 0 || st.Retries == 0 {
		t.Fatalf("stats = %+v, want retries inside the budget and no success", st)
	}
	if st := exec.Stats(); st.Inferences != 0 || st.InFlight != 0 {
		t.Fatalf("executor stats = %+v, want nothing completed and nothing in flight", st)
	}
}

// A budget ≤ 0 sets no deadline: against a stalled cloud every attempt runs
// its full Timeout, the channel is reported unavailable rather than out of
// budget, and the batch completes on the edge instead of being shed.
func TestInferBatchNoBudgetWaitsOutTimeout(t *testing.T) {
	const timeout = 60 * time.Millisecond
	model := testNet(t, 99)
	rng := rand.New(rand.NewSource(100))
	xs := make([]*tensor.Tensor, 3)
	for i := range xs {
		xs[i] = tensor.Randn(rng, 1, 3, 12, 12)
	}
	for _, budget := range []time.Duration{0, -time.Second} {
		client, now := stalledClient(t, timeout, 2)
		exec := &SplitExecutor{Edge: model, ModelID: "m", Client: client}
		start := now()
		outcomes, err := exec.InferBatch(xs, 2, budget)
		elapsed := now() - start
		if err != nil {
			t.Fatal(err)
		}
		for i, o := range outcomes {
			if o.Err != nil || o.Route != RouteFallback {
				t.Fatalf("budget %v item %d: route %v, err %v; want an edge fallback", budget, i, o.Route, o.Err)
			}
			want, err := model.Forward(xs[i])
			if err != nil {
				t.Fatal(err)
			}
			for j := range want.Data {
				if math.Float64bits(o.Logits[j]) != math.Float64bits(want.Data[j]) {
					t.Fatalf("budget %v item %d logit %d: %v, want %v", budget, i, j, o.Logits[j], want.Data[j])
				}
			}
		}
		// Two attempts, each held for its whole timeout (the backoff between
		// them is virtual and counts too).
		if elapsed < 2*timeout {
			t.Fatalf("budget %v: batch gave up after %v, want both %v attempts waited out", budget, elapsed, timeout)
		}
		if st := client.Stats(); st.Offloads != 0 || st.Retries != 1 {
			t.Fatalf("budget %v: stats = %+v, want one retry and no success", budget, st)
		}
	}
}

// A mixed-shape batch at cut -1 cannot travel as one frame, so each item is
// its own 1-item call under its own budget: against a stalled cloud every
// item sheds with ErrBudgetExhausted after about one budget, and the batch
// takes about one budget per item.
func TestInferBatchMixedShapesBudgetPerItem(t *testing.T) {
	const budget = 120 * time.Millisecond
	client, now := stalledClient(t, 30*time.Millisecond, 1000)
	model := testNet(t, 101)
	rng := rand.New(rand.NewSource(102))
	xs := []*tensor.Tensor{
		tensor.Randn(rng, 1, 3, 12, 12),
		tensor.Randn(rng, 1, 3, 8, 8),
		tensor.Randn(rng, 1, 3, 12, 12),
	}
	exec := &SplitExecutor{Edge: model, ModelID: "m", Client: client}
	start := now()
	outcomes, err := exec.InferBatch(xs, -1, budget)
	elapsed := now() - start
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outcomes {
		if !errors.Is(o.Err, ErrBudgetExhausted) || o.Route != 0 {
			t.Fatalf("item %d: route %v, err %v; want shed with ErrBudgetExhausted", i, o.Route, o.Err)
		}
	}
	// Each call stops once the next 10 ms backoff would overrun its budget,
	// so it lasts at least budget − 10 ms; the upper bound is slack for a
	// loaded machine.
	n := time.Duration(len(xs))
	if lo, hi := n*(budget-10*time.Millisecond), 2*n*budget; elapsed < lo || elapsed > hi {
		t.Fatalf("%d items took %v, want one budget each: between %v and %v", len(xs), elapsed, lo, hi)
	}
	if st := exec.Stats(); st.Inferences != 0 || st.InFlight != 0 {
		t.Fatalf("executor stats = %+v, want nothing completed and nothing in flight", st)
	}
}

// stallOffloader blocks every Offload until released, exposing the
// in-flight window to assertions.
type stallOffloader struct {
	entered chan struct{}
	release chan struct{}
}

func (s *stallOffloader) Offload(modelID string, cut int, act *tensor.Tensor) ([]float64, error) {
	s.entered <- struct{}{}
	<-s.release
	return make([]float64, 4), nil
}

// Stats must count requests that are inside the executor right now — the
// gateway's drain logic watches exactly this number.
func TestStatsCountInFlightRequests(t *testing.T) {
	model := testNet(t, 63)
	stall := &stallOffloader{entered: make(chan struct{}, 8), release: make(chan struct{})}
	exec := &SplitExecutor{Edge: model, ModelID: "stall", Client: stall}
	rng := rand.New(rand.NewSource(64))
	x := tensor.Randn(rng, 1, 3, 12, 12)

	var wg sync.WaitGroup
	const concurrent = 3
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := exec.InferRoute(x, 2); err != nil {
				t.Errorf("stalled inference failed: %v", err)
			}
		}()
	}
	for i := 0; i < concurrent; i++ {
		<-stall.entered
	}
	if got := exec.Stats().InFlight; got != concurrent {
		t.Fatalf("in flight %d, want %d", got, concurrent)
	}
	close(stall.release)
	wg.Wait()
	st := exec.Stats()
	if st.InFlight != 0 {
		t.Fatalf("in flight after drain: %d", st.InFlight)
	}
	if st.Inferences != concurrent || st.Offloaded != concurrent {
		t.Fatalf("stats %+v", st)
	}
}

func TestSplitStatsString(t *testing.T) {
	s := SplitStats{Inferences: 7, Offloaded: 4, EdgeOnly: 2, Fallbacks: 1, InFlight: 3}
	got := s.String()
	for _, want := range []string{"7 inferences", "4 offloaded", "2 edge-only", "1 fallback", "3 in flight"} {
		if !strings.Contains(got, want) {
			t.Fatalf("summary %q missing %q", got, want)
		}
	}
	var sum SplitStats
	sum.Add(s)
	sum.Add(SplitStats{Inferences: 1, EdgeOnly: 1})
	if sum.Inferences != 8 || sum.EdgeOnly != 3 || sum.Offloaded != 4 || sum.InFlight != 3 {
		t.Fatalf("aggregate %+v", sum)
	}
}

func TestInferBatchRejectsBadBatch(t *testing.T) {
	model := testNet(t, 65)
	exec := &SplitExecutor{Edge: model, ModelID: "x"}
	if _, err := exec.InferBatch(nil, 2, 0); err == nil {
		t.Fatal("expected empty-batch error")
	}
	rng := rand.New(rand.NewSource(66))
	xs := []*tensor.Tensor{tensor.Randn(rng, 1, 3, 12, 12)}
	if _, err := exec.InferBatch(xs, 99, 0); err == nil {
		t.Fatal("expected cut-range error")
	}
	if exec.Stats().InFlight != 0 {
		t.Fatal("rejected batch leaked in-flight count")
	}
}

// An odd-sized input cannot share a frame with its batch-mates; it must fail
// alone — the cloud's own rejection — while they offload as if it were not
// there. Only a raw-input offload (cut -1) can see one: with an edge prefix
// the executor's shape check refuses the batch before any kernel runs.
func TestInferBatchMixedShapesFailAlone(t *testing.T) {
	model := testNet(t, 97)
	addr := startServer(t, "m", model)
	client, err := dialPlain(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	exec := &SplitExecutor{Edge: model, ModelID: "m", Client: client}
	rng := rand.New(rand.NewSource(98))
	xs := []*tensor.Tensor{
		tensor.Randn(rng, 1, 3, 12, 12),
		tensor.Randn(rng, 1, 3, 8, 8), // not the model's input shape
		tensor.Randn(rng, 1, 3, 12, 12),
	}
	if _, err := exec.InferBatch(xs, 2, 0); err == nil || !strings.Contains(err.Error(), "batch index 1") {
		t.Fatalf("edge prefix over a mixed batch: err = %v, want a shape error naming batch index 1", err)
	}
	outcomes, err := exec.InferBatch(xs, -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	var remote *RemoteError
	if !errors.As(outcomes[1].Err, &remote) {
		t.Fatalf("odd-sized item: err = %v, want the cloud's *RemoteError", outcomes[1].Err)
	}
	for _, i := range []int{0, 2} {
		if outcomes[i].Err != nil || outcomes[i].Route != RouteOffloaded {
			t.Fatalf("item %d: route %v, err %v; want offloaded", i, outcomes[i].Route, outcomes[i].Err)
		}
		want, err := model.Forward(xs[i])
		if err != nil {
			t.Fatal(err)
		}
		for j, w := range want.Data {
			if math.Float64bits(outcomes[i].Logits[j]) != math.Float64bits(w) {
				t.Fatalf("item %d logit %d differs from the local forward", i, j)
			}
		}
	}
}

// TestServerSurvivesHostileShape is the regression for the frame that killed
// the process: a client-declared rank-1 activation whose cut precedes a Fire
// (the layer used to index Shape[1] unchecked, on a connection goroutine
// nothing recovers). It must come back as an error response, every item of
// the frame counted failed, and the same connection must then serve a
// well-shaped frame.
func TestServerSurvivesHostileShape(t *testing.T) {
	m := &nn.Model{Name: "firenet", Input: nn.Shape{C: 4, H: 6, W: 6}, Classes: 3, Layers: []nn.Layer{
		nn.NewConv(4, 8, 3, 1, 1), nn.NewReLU(),
		nn.NewFire(8, 2, 8), nn.NewReLU(),
		nn.NewGlobalAvgPool(), nn.NewFlatten(), nn.NewFC(8, 3),
	}}
	model, err := nn.NewNet(m, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startServerHandle(t, "m", model)
	client, err := dialPlain(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	const cut = 1 // the next layer is the Fire
	for name, shape := range map[string][]int{
		"rank-1":   {8 * 6 * 6},
		"rank-2":   {8, 6 * 6},
		"wrong-C":  {9, 6, 6},
		"wrong-HW": {8, 4, 9},
	} {
		hostile := []*tensor.Tensor{tensor.New(shape...), tensor.New(shape...), tensor.New(shape...)}
		_, failedBefore := srv.Stats()
		var remote *RemoteError
		if _, err := client.OffloadBatch("m", cut, hostile, 0); !errors.As(err, &remote) {
			t.Fatalf("%s: err = %v, want the server's *RemoteError", name, err)
		}
		if _, failed := srv.Stats(); failed-failedBefore != int64(len(hostile)) {
			t.Fatalf("%s: failed count grew by %d, want %d (items, not frames)", name, failed-failedBefore, len(hostile))
		}
		good, err := model.ForwardRange(tensor.Randn(rand.New(rand.NewSource(100)), 1, 4, 6, 6), 0, cut+1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := model.ForwardFrom(good, cut+1)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := client.OffloadBatch("m", cut, []*tensor.Tensor{good}, 0)
		if err != nil {
			t.Fatalf("%s: good frame after the hostile one: %v", name, err)
		}
		for j, w := range want.Data {
			if math.Float64bits(rows[0][j]) != math.Float64bits(w) {
				t.Fatalf("%s: logit %d after the hostile frame differs from the local suffix", name, j)
			}
		}
	}
	if st := client.Stats(); st.Redials != 1 {
		t.Fatalf("client dialled %d times, want the one connection to survive", st.Redials)
	}
}
