package serving

import (
	"errors"
	"math/rand"
	"net"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cadmc/internal/faultnet"
	"cadmc/internal/tensor"
)

// fastOpts returns resilience tuning that keeps tests quick: tight backoff,
// real but short deadlines.
func fastOpts() ResilientOptions {
	return ResilientOptions{
		Timeout:          500 * time.Millisecond,
		MaxAttempts:      3,
		BackoffBase:      time.Millisecond,
		BackoffMax:       4 * time.Millisecond,
		BreakerThreshold: 100, // effectively disabled unless a test lowers it
		BreakerCooldown:  time.Hour,
		Seed:             1,
	}
}

// TestClientPoisonedAfterTimeout: a single-attempt client that suffered a
// deadline mid-read must never reuse the desynchronized stream — the failed
// call reports the transport error, and the next call starts over on a
// fresh connection.
func TestClientPoisonedAfterTimeout(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	// A mute server: accepts and holds every connection, never replies.
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()
	client, err := DialResilient(lis.Addr().String(), ResilientOptions{MaxAttempts: 1, Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	act := tensor.New(3, 12, 12)
	for call := int64(1); call <= 2; call++ {
		if _, err := client.Offload("m", -1, act); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("call %d err = %v, want ErrUnavailable against a mute server", call, err)
		}
		if st := client.Stats(); st.Redials != call || st.Retries != 0 {
			t.Fatalf("after call %d stats = %+v, want %d dials (poisoned conn replaced) and no retries", call, st, call)
		}
	}
}

// TestClientSurvivesRemoteErrors pins down the flip side: application-level
// rejections keep the stream in sync and must NOT poison the connection.
func TestClientSurvivesRemoteErrors(t *testing.T) {
	model := testNet(t, 31)
	addr := startServer(t, "m", model)
	client, err := dialPlain(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	act := tensor.New(3, 12, 12)
	_, err = client.Offload("ghost", -1, act)
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("err = %v, want *RemoteError", err)
	}
	if _, err := client.Offload("m", -1, act); err != nil {
		t.Fatalf("client unusable after remote error: %v", err)
	}
	if st := client.Stats(); st.Redials != 1 {
		t.Fatalf("redials = %d, want 1: a remote error must not cost the connection", st.Redials)
	}
}

// TestActivationOverflowAndPayloadCap is the satellite bugfix regression for
// the unchecked shape product: crafted shapes must be rejected without
// overflow or a huge allocation, and the server-side cap must be enforced.
func TestActivationOverflowAndPayloadCap(t *testing.T) {
	huge := []Request{
		// Would overflow 64-bit int if multiplied naively.
		{Shape: []int{1 << 31, 1 << 31, 1 << 31}, Activation: []float64{1}, Batch: 1},
		// No overflow, but far beyond any sane allocation.
		{Shape: []int{1 << 20, 1 << 20}, Activation: []float64{1}, Batch: 1},
		// The batch count is a factor of the product like any dimension.
		{Shape: []int{1 << 20}, Activation: []float64{1}, Batch: 1 << 20},
		{Shape: []int{2}, Activation: []float64{1}, Batch: 1 << 62},
	}
	for i, req := range huge {
		_, err := activationTensors(&req, DefaultMaxPayloadElems)
		if err == nil {
			t.Fatalf("case %d: expected payload-limit error", i)
		}
	}
	// A request within the default cap but beyond a server's tighter cap.
	small := Request{Shape: []int{10, 5}, Activation: make([]float64, 100), Batch: 2}
	if _, err := activationTensors(&small, 99); err == nil {
		t.Fatal("expected limit error at maxElems=99")
	}
	if _, err := activationTensors(&small, 100); err != nil {
		t.Fatalf("2 × 50 elems at maxElems=100 must pass: %v", err)
	}
}

func TestServerEnforcesMaxPayloadElems(t *testing.T) {
	model := testNet(t, 32)
	srv := NewServer()
	srv.MaxPayloadElems = 3 * 12 * 12 // exactly one input frame
	if err := srv.Register("m", model); err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	defer func() {
		_ = srv.Close()
		<-done
	}()
	client, err := dialPlain(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// In-cap request works.
	if _, err := client.Offload("m", -1, tensor.New(3, 12, 12)); err != nil {
		t.Fatal(err)
	}
	// Over-cap request is rejected as a remote error (shape product check).
	_, err = client.Offload("m", -1, tensor.New(3, 13, 13))
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("oversized payload err = %v, want *RemoteError", err)
	}
}

// chaosDialer dials addr and wraps connection i with specFor(i); the counter
// makes fail-then-heal schedules deterministic.
func chaosDialer(addr string, clock faultnet.Clock, specFor func(i int64) faultnet.Spec) (func() (net.Conn, error), *atomic.Int64) {
	var dials atomic.Int64
	return func() (net.Conn, error) {
		i := dials.Add(1) - 1
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return faultnet.Wrap(conn, specFor(i), clock), nil
	}, &dials
}

// TestResilientRetryMatrix drives the retry/backoff machinery through the
// fault matrix: reset before the request, response cut mid-frame, response
// dropped mid-frame (deadline path). In every case the first connection is
// faulty, the redialed one is healed, and the offload must succeed with
// bit-exact logits after exactly one retry.
func TestResilientRetryMatrix(t *testing.T) {
	model := testNet(t, 33)
	rng := rand.New(rand.NewSource(34))
	x := tensor.Randn(rng, 1, 3, 12, 12)
	act, err := model.ForwardRange(x, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := model.Forward(x)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		// clientSpec faults the client side of connection i.
		clientSpec func(i int64) faultnet.Spec
		// serverSpec faults the server side of connection i.
		serverSpec func(i int64, spec faultnet.Spec) faultnet.Spec
	}{
		{
			name: "reset-before-request",
			clientSpec: func(i int64) faultnet.Spec {
				if i == 0 {
					return faultnet.Spec{Seed: 1, ResetProb: 1}
				}
				return faultnet.Spec{Seed: 1}
			},
		},
		{
			name: "response-cut-mid-frame",
			serverSpec: func(i int64, spec faultnet.Spec) faultnet.Spec {
				if i == 0 {
					spec.CutAfterBytes = 20 // dies inside the first response frame
				}
				return spec
			},
		},
		{
			name: "response-dropped-then-deadline",
			serverSpec: func(i int64, spec faultnet.Spec) faultnet.Spec {
				if i == 0 {
					spec.DropProb = 1 // response prefix delivered, then silence
				}
				return spec
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := NewServer()
			if err := srv.Register("m", model); err != nil {
				t.Fatal(err)
			}
			raw, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			var lis net.Listener = raw
			if tc.serverSpec != nil {
				chaos := faultnet.WrapListener(raw, faultnet.Spec{Seed: 2}, nil)
				chaos.PerConn = tc.serverSpec
				lis = chaos
			}
			done := make(chan error, 1)
			go func() { done <- srv.Serve(lis) }()
			defer func() {
				_ = srv.Close()
				<-done
			}()

			specFor := tc.clientSpec
			if specFor == nil {
				specFor = func(int64) faultnet.Spec { return faultnet.Spec{Seed: 3} }
			}
			dial, dials := chaosDialer(raw.Addr().String(), faultnet.NewManualClock(), specFor)
			client, err := NewResilientClient(dial, fastOpts())
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()

			logits, err := client.Offload("m", 2, act)
			if err != nil {
				t.Fatalf("offload through %s: %v", tc.name, err)
			}
			for j := range logits {
				if logits[j] != want.Data[j] {
					t.Fatalf("logit %d = %v, want %v (stale or corrupt frame)", j, logits[j], want.Data[j])
				}
			}
			st := client.Stats()
			if st.Offloads != 1 || st.Retries == 0 {
				t.Fatalf("stats = %+v, want 1 offload after ≥1 retry", st)
			}
			if got := dials.Load(); got < 2 {
				t.Fatalf("dials = %d, want ≥2 (faulty conn replaced)", got)
			}
			// The healed channel keeps working without further retries.
			before := client.Stats().Retries
			if _, err := client.Offload("m", 2, act); err != nil {
				t.Fatalf("second offload: %v", err)
			}
			if client.Stats().Retries != before {
				t.Fatal("healed channel must not need retries")
			}
		})
	}
}

// TestResilientServerRestart kills the server mid-stream and brings up a
// replacement on a new address; the client must redial and complete.
func TestResilientServerRestart(t *testing.T) {
	model := testNet(t, 35)
	rng := rand.New(rand.NewSource(36))
	x := tensor.Randn(rng, 1, 3, 12, 12)
	act, err := model.ForwardRange(x, 0, 3)
	if err != nil {
		t.Fatal(err)
	}

	start := func() (*Server, net.Listener, chan error) {
		srv := NewServer()
		if err := srv.Register("m", model); err != nil {
			t.Fatal(err)
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(lis) }()
		return srv, lis, done
	}
	srv1, lis1, done1 := start()
	var addr atomic.Value
	addr.Store(lis1.Addr().String())
	client, err := NewResilientClient(func() (net.Conn, error) {
		return net.Dial("tcp", addr.Load().(string))
	}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if _, err := client.Offload("m", 2, act); err != nil {
		t.Fatalf("offload before restart: %v", err)
	}
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done1; err != nil {
		t.Fatal(err)
	}
	srv2, lis2, done2 := start()
	addr.Store(lis2.Addr().String())
	defer func() {
		_ = srv2.Close()
		<-done2
	}()
	if _, err := client.Offload("m", 2, act); err != nil {
		t.Fatalf("offload after restart: %v", err)
	}
	if st := client.Stats(); st.Redials < 2 || st.Offloads != 2 {
		t.Fatalf("stats = %+v, want ≥2 redials and 2 offloads", st)
	}
}

func TestResilientRetriesExhausted(t *testing.T) {
	opts := fastOpts()
	opts.MaxAttempts = 2
	dialErr := errors.New("host unreachable")
	var dials atomic.Int64
	client, err := NewResilientClient(func() (net.Conn, error) {
		dials.Add(1)
		return nil, dialErr
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	_, err = client.Offload("m", 2, tensor.New(3, 12, 12))
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	if got := dials.Load(); got != 2 {
		t.Fatalf("dials = %d, want exactly MaxAttempts", got)
	}
}

// TestBreakerUnit pins the closed→open→half-open→closed cycle on a manual
// clock, including the single-probe rule in the half-open state.
func TestBreakerUnit(t *testing.T) {
	now := time.Duration(0)
	b := NewBreaker(2, 100*time.Millisecond, func() time.Duration { return now })
	if b.State() != BreakerClosed || !b.Allow() {
		t.Fatal("fresh breaker must be closed and allowing")
	}
	if b.Failure() {
		t.Fatal("first failure must not trip a threshold-2 breaker")
	}
	if !b.Failure() {
		t.Fatal("second failure must trip the breaker")
	}
	if b.State() != BreakerOpen || b.Allow() {
		t.Fatal("open breaker must reject")
	}
	now = 99 * time.Millisecond
	if b.Allow() {
		t.Fatal("must stay open inside the cooldown")
	}
	now = 100 * time.Millisecond
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state after cooldown = %v, want half-open", b.State())
	}
	if !b.Allow() {
		t.Fatal("first probe after cooldown must pass")
	}
	if b.Allow() {
		t.Fatal("only one probe may be in flight")
	}
	if !b.Failure() {
		t.Fatal("failed probe must re-open")
	}
	now = 250 * time.Millisecond
	if !b.Allow() {
		t.Fatal("probe after second cooldown must pass")
	}
	b.Success()
	if b.State() != BreakerClosed || !b.Allow() {
		t.Fatal("successful probe must close the breaker")
	}
	if b.Opens() != 2 {
		t.Fatalf("opens = %d, want 2", b.Opens())
	}
}

// TestSplitExecutorFallbackOpenCircuit is the graceful-degradation core:
// with the cloud unreachable, every inference still completes on the edge
// with bit-exact logits, the circuit opens after the threshold, and the dead
// cloud stops being hammered entirely.
func TestSplitExecutorFallbackOpenCircuit(t *testing.T) {
	model := testNet(t, 37)
	rng := rand.New(rand.NewSource(38))
	x := tensor.Randn(rng, 1, 3, 12, 12)
	want, err := model.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	opts := fastOpts()
	opts.MaxAttempts = 2
	opts.BreakerThreshold = 3
	frozen := time.Duration(0)
	opts.Now = func() time.Duration { return frozen } // cooldown never elapses
	var dials atomic.Int64
	client, err := NewResilientClient(func() (net.Conn, error) {
		dials.Add(1)
		return nil, errors.New("cloud is down")
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	exec := &SplitExecutor{Edge: model, ModelID: "m", Client: client}

	const inferences = 10
	for i := 0; i < inferences; i++ {
		logits, route, err := exec.InferRoute(x, 2)
		if err != nil {
			t.Fatalf("inference %d: %v", i, err)
		}
		if route != RouteFallback {
			t.Fatalf("inference %d route = %v, want fallback", i, route)
		}
		for j := range logits {
			if logits[j] != want.Data[j] {
				t.Fatalf("inference %d logit %d: %v vs local %v", i, j, logits[j], want.Data[j])
			}
		}
	}
	st := exec.Stats()
	if st.Inferences != inferences || st.Fallbacks != inferences {
		t.Fatalf("stats = %+v, want %d/%d fallbacks", st, inferences, inferences)
	}
	if client.BreakerState() != BreakerOpen {
		t.Fatalf("breaker = %v, want open", client.BreakerState())
	}
	// Request 1: two dial failures. Request 2: one more trips the threshold,
	// the second attempt is rejected by the breaker. Requests 3..10: no
	// network activity at all.
	if got := dials.Load(); got != 3 {
		t.Fatalf("dials = %d, want 3 (open circuit must stop hammering)", got)
	}
	if cs := client.Stats(); cs.BreakerOpens != 1 {
		t.Fatalf("channel stats = %+v, want exactly 1 breaker open", cs)
	}
}

// TestSplitExecutorPropagatesRemoteErrors: fallback is for unavailability,
// not for requests the server rejected.
func TestSplitExecutorPropagatesRemoteErrors(t *testing.T) {
	model := testNet(t, 39)
	addr := startServer(t, "m", model)
	client, err := DialResilient(addr, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	exec := &SplitExecutor{Edge: model, ModelID: "ghost", Client: client}
	x := tensor.Randn(rand.New(rand.NewSource(40)), 1, 3, 12, 12)
	_, _, err = exec.InferRoute(x, 2)
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("err = %v, want the remote rejection, not a silent fallback", err)
	}
	if st := exec.Stats(); st.Inferences != 0 {
		t.Fatalf("failed inference must not be counted: %+v", st)
	}
}

// TestServerIdleTimeoutReapsDeadConnections: a client that connects and goes
// mute must not pin a handler goroutine forever.
func TestServerIdleTimeoutReapsDeadConnections(t *testing.T) {
	model := testNet(t, 41)
	srv := NewServer()
	srv.IdleTimeout = 50 * time.Millisecond
	if err := srv.Register("m", model); err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	defer func() {
		_ = srv.Close()
		<-done
	}()
	// A mute connection: never sends a byte.
	mute, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer mute.Close()
	// The server must close it from its side once the idle deadline fires.
	deadline := time.Now().Add(5 * time.Second)
	buf := make([]byte, 1)
	if err := mute.SetReadDeadline(deadline); err != nil {
		t.Fatal(err)
	}
	if _, err := mute.Read(buf); err == nil || isTimeout(err) {
		t.Fatalf("mute conn read = %v, want server-side close before our 5s guard", err)
	}
	// Healthy clients are unaffected as long as they keep talking.
	client, err := dialPlain(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for i := 0; i < 3; i++ {
		if _, err := client.Offload("m", -1, tensor.New(3, 12, 12)); err != nil {
			t.Fatalf("healthy request %d: %v", i, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// stalledConn is a peer that never sends a byte. Writes vanish; a read
// fails with a deadline expiry when a read deadline is armed, and with
// errWaitForever — standing in for parking the goroutine — when none is.
type stalledConn struct {
	fuzzConn
	readDeadline time.Time
}

var errWaitForever = errors.New("read with no deadline armed: would wait forever")

func (c *stalledConn) SetDeadline(t time.Time) error     { c.readDeadline = t; return nil }
func (c *stalledConn) SetReadDeadline(t time.Time) error { c.readDeadline = t; return nil }
func (c *stalledConn) Read([]byte) (int, error) {
	if c.readDeadline.IsZero() {
		return 0, errWaitForever
	}
	return 0, os.ErrDeadlineExceeded
}

// TestNoUnboundedWaits: there is no wait-forever mode. Zero (or negative)
// ResilientOptions.Timeout and Server.IdleTimeout resolve to the positive
// defaults, and both sides arm that deadline before reading from a stalled
// peer, so the peer is abandoned rather than waited on.
func TestNoUnboundedWaits(t *testing.T) {
	for _, unset := range []time.Duration{0, -time.Second} {
		if got := (ResilientOptions{Timeout: unset}).withDefaults().Timeout; got != DefaultResilientOptions().Timeout || got <= 0 {
			t.Fatalf("Timeout %v resolved to %v, want the positive default", unset, got)
		}
		if got := (&Server{IdleTimeout: unset}).idleTimeout(); got != DefaultIdleTimeout || got <= 0 {
			t.Fatalf("IdleTimeout %v resolved to %v, want the positive default", unset, got)
		}
	}
	if got := (&Server{IdleTimeout: time.Minute}).idleTimeout(); got != time.Minute {
		t.Fatalf("explicit IdleTimeout resolved to %v", got)
	}

	cases := []struct {
		name string
		// run drives one side against the stalled peer and returns once that
		// side has given up on it.
		run  func(t *testing.T, peer *stalledConn)
		want time.Duration
	}{
		{
			name: "client-zero-options",
			run: func(t *testing.T, peer *stalledConn) {
				client, err := NewResilientClient(func() (net.Conn, error) { return peer, nil },
					ResilientOptions{MaxAttempts: 1})
				if err != nil {
					t.Fatal(err)
				}
				defer client.Close()
				_, err = client.Offload("m", -1, tensor.New(3, 12, 12))
				if !errors.Is(err, ErrUnavailable) || strings.Contains(err.Error(), errWaitForever.Error()) {
					t.Fatalf("err = %v, want ErrUnavailable from an expired deadline", err)
				}
			},
			want: DefaultResilientOptions().Timeout,
		},
		{
			name: "server-zero-idle-timeout",
			run:  func(t *testing.T, peer *stalledConn) { NewServer().handle(peer) },
			want: DefaultIdleTimeout,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			peer := &stalledConn{}
			before := time.Now()
			tc.run(t, peer)
			after := time.Now()
			if peer.readDeadline.Before(before.Add(tc.want)) || peer.readDeadline.After(after.Add(tc.want)) {
				t.Fatalf("armed read deadline %v, want now+%v (between %v and %v)",
					peer.readDeadline, tc.want, before.Add(tc.want), after.Add(tc.want))
			}
		})
	}
}
