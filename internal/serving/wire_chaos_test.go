package serving

import (
	"errors"
	"math/rand"
	"net"
	"testing"

	"cadmc/internal/faultnet"
	"cadmc/internal/nn"
	"cadmc/internal/tensor"
)

// wireChaosRig is one server + resilient client pair with per-connection
// chaos on either side of the link.
type wireChaosRig struct {
	client *ResilientClient
	srv    *Server
	act    *tensor.Tensor
	want   []float64
}

func newWireChaosRig(t *testing.T, opts ResilientOptions,
	clientSpec func(i int64) faultnet.Spec,
	serverSpec func(i int64, spec faultnet.Spec) faultnet.Spec) *wireChaosRig {
	t.Helper()
	model := testNet(t, 41)
	rng := rand.New(rand.NewSource(42))
	x := tensor.Randn(rng, 1, 3, 12, 12)
	act, err := model.ForwardRange(x, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := model.Forward(x)
	if err != nil {
		t.Fatal(err)
	}

	srv := NewServer()
	if err := srv.Register("m", model); err != nil {
		t.Fatal(err)
	}
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var lis net.Listener = raw
	if serverSpec != nil {
		chaos := faultnet.WrapListener(raw, faultnet.Spec{Seed: 2}, nil)
		chaos.PerConn = serverSpec
		lis = chaos
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	t.Cleanup(func() {
		_ = srv.Close()
		<-done
	})

	specFor := clientSpec
	if specFor == nil {
		specFor = func(int64) faultnet.Spec { return faultnet.Spec{Seed: 3} }
	}
	dial, _ := chaosDialer(raw.Addr().String(), faultnet.NewManualClock(), specFor)
	client, err := NewResilientClient(dial, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })
	return &wireChaosRig{client: client, srv: srv, act: act, want: want.Data}
}

// Stream byte positions for corruption targets, derived from the frame
// layout: the client stream opens with a 20-byte hello, so the first request
// frame's header spans bytes 21–40 and its payload starts at 41; the server
// stream opens with a 21-byte hello ack, so the first response header spans
// 22–41 and its payload starts at 42.
const (
	corruptHelloHeader     = 5   // inside the client hello header
	corruptRequestPayload  = 100 // inside the first request's activation data
	corruptResponsePayload = 80  // inside the first response's logits
)

// TestWireErrorTaxonomy is the satellite table test: each transport fault
// class must land in exactly one recovery bucket — resync (retry in place,
// breaker untouched), redial (retry on a fresh connection, breaker fed),
// remote error (no retry, breaker satisfied) — with the stats to prove it.
func TestWireErrorTaxonomy(t *testing.T) {
	cases := []struct {
		name       string
		clientSpec func(i int64) faultnet.Spec
		serverSpec func(i int64, spec faultnet.Spec) faultnet.Spec
		// breakerThreshold of 1 trips on the first counted transport
		// failure — the sharpest probe for what feeds the breaker.
		breakerThreshold int
		offloadModel     string
		wantErr          error
		wantResyncs      int64
		wantRetries      int64
		wantRedials      int64
		wantRemoteErrs   int64
		wantOpens        int64
	}{
		{
			// A damaged request payload under an intact header: the server
			// answers with a resync frame and the SAME connection carries
			// the retry. With threshold 1 the breaker would reject the
			// retry if a resync counted as a failure — success proves the
			// taxonomy split.
			name: "request-payload-corrupt-resyncs-in-place",
			clientSpec: func(i int64) faultnet.Spec {
				if i == 0 {
					return faultnet.Spec{Seed: 1, CorruptByteAt: corruptRequestPayload}
				}
				return faultnet.Spec{Seed: 1}
			},
			breakerThreshold: 1,
			wantResyncs:      1,
			wantRetries:      1,
			wantRedials:      1,
		},
		{
			// Same fault on the return path: the client detects the damaged
			// response itself and retries in place.
			name: "response-payload-corrupt-resyncs-in-place",
			serverSpec: func(i int64, spec faultnet.Spec) faultnet.Spec {
				if i == 0 {
					spec.CorruptByteAt = corruptResponsePayload
				}
				return spec
			},
			breakerThreshold: 1,
			wantResyncs:      1,
			wantRetries:      1,
			wantRedials:      1,
		},
		{
			// A damaged hello header kills the handshake: an ordinary
			// transport failure, recovered by redialing.
			name: "hello-corrupt-redials",
			clientSpec: func(i int64) faultnet.Spec {
				if i == 0 {
					return faultnet.Spec{Seed: 1, CorruptByteAt: corruptHelloHeader}
				}
				return faultnet.Spec{Seed: 1}
			},
			wantRetries: 1,
			wantRedials: 2,
		},
		{
			// A reset IS breaker food: with threshold 1 the first failure
			// opens the circuit and the retry is rejected without touching
			// the network.
			name: "reset-trips-threshold-1-breaker",
			clientSpec: func(i int64) faultnet.Spec {
				return faultnet.Spec{Seed: 1, ResetProb: 1}
			},
			breakerThreshold: 1,
			wantErr:          ErrCircuitOpen,
			wantRetries:      1,
			wantRedials:      1,
			wantOpens:        1,
		},
		{
			// An application-level rejection: transport fine, no retry, no
			// redial beyond the first dial, breaker satisfied.
			name:             "remote-error-not-retried",
			offloadModel:     "no-such-model",
			breakerThreshold: 1,
			wantErr:          nil, // asserted as *RemoteError below
			wantRemoteErrs:   1,
			wantRedials:      1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := fastOpts()
			if tc.breakerThreshold > 0 {
				opts.BreakerThreshold = tc.breakerThreshold
			}
			rig := newWireChaosRig(t, opts, tc.clientSpec, tc.serverSpec)
			modelID := tc.offloadModel
			if modelID == "" {
				modelID = "m"
			}
			logits, err := rig.client.Offload(modelID, 2, rig.act)
			switch {
			case tc.offloadModel != "":
				var remote *RemoteError
				if !errors.As(err, &remote) {
					t.Fatalf("err = %v, want a *RemoteError", err)
				}
			case tc.wantErr != nil:
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
			default:
				if err != nil {
					t.Fatalf("offload: %v", err)
				}
				for j := range logits {
					if logits[j] != rig.want[j] {
						t.Fatalf("logit %d = %v, want %v (stale or corrupt frame)", j, logits[j], rig.want[j])
					}
				}
			}
			stats := rig.client.Stats()
			if stats.Resyncs != tc.wantResyncs {
				t.Fatalf("resyncs = %d, want %d (stats %+v)", stats.Resyncs, tc.wantResyncs, stats)
			}
			if stats.Retries != tc.wantRetries {
				t.Fatalf("retries = %d, want %d (stats %+v)", stats.Retries, tc.wantRetries, stats)
			}
			if stats.Redials != tc.wantRedials {
				t.Fatalf("redials = %d, want %d (stats %+v)", stats.Redials, tc.wantRedials, stats)
			}
			if stats.RemoteErrors != tc.wantRemoteErrs {
				t.Fatalf("remote errors = %d, want %d (stats %+v)", stats.RemoteErrors, tc.wantRemoteErrs, stats)
			}
			if stats.BreakerOpens != tc.wantOpens {
				t.Fatalf("breaker opens = %d, want %d (stats %+v)", stats.BreakerOpens, tc.wantOpens, stats)
			}
		})
	}
}

// TestWireResyncKeepsConnection pins the "cheap" in cheap resync: after a
// checksum recovery the same connection keeps serving — many follow-up
// offloads, zero additional dials, breaker closed throughout.
func TestWireResyncKeepsConnection(t *testing.T) {
	clientSpec := func(i int64) faultnet.Spec {
		if i == 0 {
			return faultnet.Spec{Seed: 1, CorruptByteAt: corruptRequestPayload}
		}
		return faultnet.Spec{Seed: 1}
	}
	rig := newWireChaosRig(t, fastOpts(), clientSpec, nil)
	for i := 0; i < 10; i++ {
		logits, err := rig.client.Offload("m", 2, rig.act)
		if err != nil {
			t.Fatalf("offload %d: %v", i, err)
		}
		for j := range logits {
			if logits[j] != rig.want[j] {
				t.Fatalf("offload %d logit %d = %v, want %v", i, j, logits[j], rig.want[j])
			}
		}
	}
	stats := rig.client.Stats()
	if stats.Redials != 1 {
		t.Fatalf("redials = %d, want 1: a resync must not cost a connection", stats.Redials)
	}
	if stats.Resyncs != 1 || stats.Retries != 1 {
		t.Fatalf("resyncs/retries = %d/%d, want 1/1 (stats %+v)", stats.Resyncs, stats.Retries, stats)
	}
	if stats.Offloads != 10 {
		t.Fatalf("offloads = %d, want 10", stats.Offloads)
	}
	if state := rig.client.BreakerState(); state != BreakerClosed {
		t.Fatalf("breaker = %v, want closed: resyncs are not failures", state)
	}
	served, failed := rig.srv.Stats()
	if failed != 0 {
		t.Fatalf("server failed %d requests, want 0", failed)
	}
	if served != 10 {
		t.Fatalf("server served %d requests, want 10 (the damaged frame answers with a resync, not a result)", served)
	}
}

// batchActs returns n activations after layer 2 of model and the logits a
// local forward gives each.
func batchActs(t *testing.T, model *nn.Net, seed int64, n int) (acts []*tensor.Tensor, want [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		x := tensor.Randn(rng, 1, 3, 12, 12)
		act, err := model.ForwardRange(x, 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		local, err := model.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		acts, want = append(acts, act), append(want, local.Data)
	}
	return acts, want
}

// midBatch is a client-stream byte position well inside the fourth item of a
// batch of testNet activations after layer 2 (8×6×6 float64s = 2304 bytes
// each, behind a 20-byte hello, a 20-byte header and a short envelope).
const midBatch = 40 + 3*2304 + 1000

// TestWireBatchResyncsAsAUnit: one flipped byte inside a batch's payload
// costs exactly one resync — the whole batch is retried in place on the same
// connection, the breaker (threshold 1) never hears of it, and the server
// counts the batch's items once.
func TestWireBatchResyncsAsAUnit(t *testing.T) {
	opts := fastOpts()
	opts.BreakerThreshold = 1
	rig := newWireChaosRig(t, opts, func(i int64) faultnet.Spec {
		if i == 0 {
			return faultnet.Spec{Seed: 1, CorruptByteAt: midBatch}
		}
		return faultnet.Spec{Seed: 1}
	}, nil)
	acts, want := batchActs(t, testNet(t, 41), 43, 8)
	rows, err := rig.client.OffloadBatch("m", 2, acts, 0)
	if err != nil {
		t.Fatalf("offload batch: %v", err)
	}
	for i := range want {
		for j := range want[i] {
			if rows[i][j] != want[i][j] {
				t.Fatalf("item %d logit %d = %v, want %v (stale or corrupt frame)", i, j, rows[i][j], want[i][j])
			}
		}
	}
	if st := rig.client.Stats(); st.Resyncs != 1 || st.Retries != 1 || st.Redials != 1 || st.Offloads != 1 || st.BreakerOpens != 0 {
		t.Fatalf("stats = %+v, want one resync, one retry, one connection, one round trip, breaker untouched", st)
	}
	if state := rig.client.BreakerState(); state != BreakerClosed {
		t.Fatalf("breaker = %v, want closed", state)
	}
	if served, failed := rig.srv.Stats(); served != 8 || failed != 0 {
		t.Fatalf("server stats = %d served / %d failed, want 8/0: the damaged frame answers with a resync, not a result", served, failed)
	}
}

// TestInferBatchFallsBackAsAUnit: a connection cut in the middle of a batch
// frame fails the batch once — one attempt, one breaker failure, which at
// threshold 1 is one trip — and every item of it still completes, on the
// edge, bit-identical to a local forward.
func TestInferBatchFallsBackAsAUnit(t *testing.T) {
	opts := fastOpts()
	opts.MaxAttempts = 1
	opts.BreakerThreshold = 1
	rig := newWireChaosRig(t, opts, func(int64) faultnet.Spec {
		return faultnet.Spec{Seed: 1, CutAfterBytes: midBatch}
	}, nil)
	model := testNet(t, 41)
	exec := &SplitExecutor{Edge: model, ModelID: "m", Client: rig.client}
	rng := rand.New(rand.NewSource(44))
	xs := make([]*tensor.Tensor, 8)
	for i := range xs {
		xs[i] = tensor.Randn(rng, 1, 3, 12, 12)
	}
	outcomes, err := exec.InferBatch(xs, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outcomes {
		if o.Err != nil || o.Route != RouteFallback {
			t.Fatalf("item %d: route %v, err %v; want fallback", i, o.Route, o.Err)
		}
		local, err := model.Forward(xs[i])
		if err != nil {
			t.Fatal(err)
		}
		for j, w := range local.Data {
			if o.Logits[j] != w {
				t.Fatalf("item %d logit %d = %v, want %v", i, j, o.Logits[j], w)
			}
		}
	}
	if st := rig.client.Stats(); st.Offloads != 0 || st.Retries != 0 || st.Redials != 1 || st.BreakerOpens != 1 {
		t.Fatalf("stats = %+v, want one failed attempt on one connection and one breaker trip", st)
	}
	if st := exec.Stats(); st.Fallbacks != 8 || st.Inferences != 8 || st.InFlight != 0 {
		t.Fatalf("executor stats = %+v, want 8 fallbacks", st)
	}
	if served, failed := rig.srv.Stats(); served != 0 || failed != 0 {
		t.Fatalf("server stats = %d served / %d failed, want 0/0: the frame never arrived whole", served, failed)
	}
}
