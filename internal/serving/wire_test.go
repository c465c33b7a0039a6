package serving

import (
	"errors"
	"math"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"cadmc/internal/tensor"
)

// fakeSink is a minimal MetricSink for asserting codec metering without
// pulling the telemetry package into serving's tests.
type fakeSink struct {
	mu       sync.Mutex
	counts   map[string]int64
	observed map[string]int
}

func newFakeSink() *fakeSink {
	return &fakeSink{counts: map[string]int64{}, observed: map[string]int{}}
}

func (s *fakeSink) Count(name string, delta int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counts[name] += delta
}
func (s *fakeSink) SetGauge(string, float64) {}
func (s *fakeSink) Observe(name string, _ float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.observed[name]++
}

func (s *fakeSink) count(name string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts[name]
}

func (s *fakeSink) observations(name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.observed[name]
}

// TestWireRoundTripTable round-trips requests and responses through the
// binary codec over an in-memory loopback: every field must survive
// bit-exactly in float64 mode, and within float32 precision in narrowed
// mode.
func TestWireRoundTripTable(t *testing.T) {
	requests := []*Request{
		{ID: 1, ModelID: "m", Cut: 2, Shape: []int{2, 3, 4}, Activation: make([]float64, 24), Batch: 1},
		{ID: 1<<64 - 1, ModelID: "", Cut: -1, Shape: []int{1}, Activation: []float64{math.Pi}, Batch: 1},
		{ID: 7, ModelID: strings.Repeat("x", 300), Cut: 0, Shape: []int{3, 1, 1},
			Activation: []float64{math.NaN(), math.Inf(1), -0}, Batch: 1},
		{ID: 8, ModelID: "batch", Cut: 5, Shape: []int{2, 1},
			Activation: []float64{1, 2, 3, 4, 5, math.NaN(), 7, 8}, Batch: 4},
	}
	for _, narrow := range []bool{false, true} {
		conn := newLoopConn()
		enc := newBinCodec(conn, 0, nil, nil, clientWireNames)
		enc.narrow = narrow
		dec := newBinCodec(conn, 0, nil, nil, serverWireNames)
		got := new(Request)
		for i, req := range requests {
			if err := enc.writeRequest(req, reqItems(req)); err != nil {
				t.Fatalf("narrow=%v request %d encode: %v", narrow, i, err)
			}
			if err := dec.readRequest(got); err != nil {
				t.Fatalf("narrow=%v request %d decode: %v", narrow, i, err)
			}
			if !narrow && !sameRequest(req, got) {
				t.Fatalf("request %d diverged:\n in:  %+v\n out: %+v", i, req, got)
			}
			if narrow {
				if got.ID != req.ID || got.Cut != req.Cut || got.ModelID != req.ModelID || got.Batch != req.Batch {
					t.Fatalf("narrowed request %d envelope diverged: %+v vs %+v", i, req, got)
				}
				for j := range req.Activation {
					if want := float64(float32(req.Activation[j])); math.Float64bits(want) != math.Float64bits(got.Activation[j]) {
						t.Fatalf("narrowed element %d/%d = %v, want float32-rounded %v", i, j, got.Activation[j], want)
					}
				}
			}
		}
	}

	responses := []*Response{
		{ID: 3, Logits: []float64{1.5, -2.25, math.NaN()}, Batch: 1},
		{ID: 4, Err: "unknown model \"zebra\""},
		{ID: 5, Logits: []float64{1, 2, 3, 4, 5, 6}, Batch: 3},
		{ID: 0, Logits: nil, Batch: 2},
	}
	conn := newLoopConn()
	enc := newBinCodec(conn, 0, nil, nil, serverWireNames)
	dec := newBinCodec(conn, 0, nil, nil, clientWireNames)
	got := new(Response)
	for i, resp := range responses {
		var rows []*tensor.Tensor
		if resp.Batch > 0 {
			rows = flatItems(resp.Logits, resp.Batch)
		}
		if err := enc.writeResponse(resp, rows); err != nil {
			t.Fatalf("response %d encode: %v", i, err)
		}
		if err := dec.readResponse(got); err != nil {
			t.Fatalf("response %d decode: %v", i, err)
		}
		if got.ID != resp.ID || got.Err != resp.Err || got.Batch != resp.Batch || len(got.Logits) != len(resp.Logits) {
			t.Fatalf("response %d diverged:\n in:  %+v\n out: %+v", i, resp, got)
		}
		for j := range resp.Logits {
			if math.Float64bits(resp.Logits[j]) != math.Float64bits(got.Logits[j]) {
				t.Fatalf("response %d logit %d = %v, want %v", i, j, got.Logits[j], resp.Logits[j])
			}
		}
	}
}

// TestWireZeroAllocSteadyState is the codec's allocation contract: once
// buffers are warm, a full request+response round trip through the binary
// codec — encode, decode, encode, decode — allocates nothing, for a single
// activation and for a batch of eight alike: the items are staged straight
// from their tensors and decoded into the reused request.
func TestWireZeroAllocSteadyState(t *testing.T) {
	for _, n := range []int{1, 8} {
		conn := newLoopConn()
		client := newBinCodec(conn, 0, nil, nil, clientWireNames)
		server := newBinCodec(conn, 0, nil, nil, serverWireNames)
		req := &Request{ID: 1, ModelID: "m", Cut: 3, Shape: []int{8, 16, 16}}
		resp := &Response{ID: 1}
		acts := make([]*tensor.Tensor, n)
		rows := make([]*tensor.Tensor, n)
		for i := range acts {
			acts[i] = tensor.New(8, 16, 16)
			rows[i] = tensor.New(10, 1, 1)
		}
		gotReq := new(Request)
		gotResp := new(Response)
		roundTrip := func() {
			req.ID++
			resp.ID = req.ID
			if err := client.writeRequest(req, acts); err != nil {
				t.Fatal(err)
			}
			if err := server.readRequest(gotReq); err != nil {
				t.Fatal(err)
			}
			if err := server.writeResponse(resp, rows); err != nil {
				t.Fatal(err)
			}
			if err := client.readResponse(gotResp); err != nil {
				t.Fatal(err)
			}
		}
		roundTrip() // warm the staged buffers and destination slices
		if gotReq.Batch != n || len(gotReq.Activation) != n*8*16*16 || gotResp.Batch != n || len(gotResp.Logits) != n*10 {
			t.Fatalf("batch of %d decoded as %d activations (%d elements) and %d rows (%d logits)",
				n, gotReq.Batch, len(gotReq.Activation), gotResp.Batch, len(gotResp.Logits))
		}
		if allocs := testing.AllocsPerRun(50, roundTrip); allocs > 0 {
			t.Fatalf("steady-state round trip of a batch of %d allocates %.1f times per frame pair, want 0", n, allocs)
		}
	}
}

// TestWireNegotiationMatrix covers the handshake outcomes between two
// current peers: binary by default, feature flags granted by intersection,
// and a single-attempt client negotiating exactly like a retrying one.
func TestWireNegotiationMatrix(t *testing.T) {
	model := testNet(t, 77)
	rng := rand.New(rand.NewSource(78))
	x := tensor.Randn(rng, 1, 3, 12, 12)
	act, err := model.ForwardRange(x, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := model.Forward(x)
	if err != nil {
		t.Fatal(err)
	}

	plain := ResilientOptions{MaxAttempts: 1}
	narrowed := fastOpts()
	narrowed.Wire = WireConfig{NarrowActivations: true}
	cases := []struct {
		name      string
		opts      ResilientOptions
		wantProto string
		// bitExact demands logits identical to the local forward; narrowed
		// activations only promise float32-level agreement.
		bitExact bool
	}{
		{name: "binary-default", opts: fastOpts(), wantProto: "binary-v2", bitExact: true},
		{name: "binary-narrowed", opts: narrowed, wantProto: "binary-v2+f32"},
		{name: "single-attempt-client", opts: plain, wantProto: "binary-v2", bitExact: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr := startServer(t, "m", model)
			client, err := DialResilient(addr, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()

			for i := 0; i < 3; i++ {
				logits, err := client.Offload("m", 2, act)
				if err != nil {
					t.Fatalf("offload %d: %v", i, err)
				}
				for j := range logits {
					diff := math.Abs(logits[j] - want.Data[j])
					if tc.bitExact && diff != 0 {
						t.Fatalf("offload %d logit %d = %v, want bit-exact %v", i, j, logits[j], want.Data[j])
					}
					if diff > 1e-5 {
						t.Fatalf("offload %d logit %d = %v, drifted %v from %v", i, j, logits[j], diff, want.Data[j])
					}
				}
			}
			if got := client.WireProtocol(); got != tc.wantProto {
				t.Fatalf("negotiated %q, want %q", got, tc.wantProto)
			}
			if stats := client.Stats(); stats.Redials != 1 || stats.Offloads != 3 {
				t.Fatalf("stats = %+v, want 1 dial and 3 offloads", stats)
			}
		})
	}
}

// TestWireForeignPeersRefused covers the peers this build does not speak to:
// each is turned away without a panic and without disturbing the server,
// which keeps serving a second, well-behaved connection.
func TestWireForeignPeersRefused(t *testing.T) {
	model := testNet(t, 79)
	act := tensor.New(3, 12, 12)

	// expectClosed asserts the server hung up without sending another byte.
	expectClosed := func(t *testing.T, conn net.Conn) {
		t.Helper()
		if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		// EOF, or a reset when the server closed over bytes it never read.
		if n, err := conn.Read(make([]byte, 1)); n != 0 || err == nil || isTimeout(err) {
			t.Fatalf("read after refusal = %d bytes, %v; want the connection closed", n, err)
		}
	}
	// expectStillServing offloads once through a well-behaved client and
	// checks the server counted that request and nothing else.
	expectStillServing := func(t *testing.T, srv *Server, addr string) {
		t.Helper()
		if served, failed := srv.Stats(); served != 0 || failed != 0 {
			t.Fatalf("refused peer moved the counters to %d served / %d failed", served, failed)
		}
		client, err := dialPlain(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		if _, err := client.Offload("m", -1, act); err != nil {
			t.Fatalf("server unhealthy after refusing a peer: %v", err)
		}
		if served, failed := srv.Stats(); served != 1 || failed != 0 {
			t.Fatalf("stats = %d served / %d failed, want 1/0", served, failed)
		}
	}

	// A version from the future, and the previous one: its frames carried no
	// batch count, so a peer still speaking it is as foreign as any other.
	for name, version := range map[string]byte{"unknown-version-hello": 9, "previous-version-hello": wireVersion - 1} {
		t.Run(name, func(t *testing.T) {
			srv, addr := startServerHandle(t, "m", model)
			raw, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer raw.Close()
			bc := newBinCodec(raw, 0, nil, nil, clientWireNames)
			if err := bc.writeHello(version, 0); err != nil {
				t.Fatal(err)
			}
			if err := raw.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
				t.Fatal(err)
			}
			if err := bc.readHelloAck(); !errors.Is(err, errVersionRefused) {
				t.Fatalf("hello ack for version %d = %v, want errVersionRefused", version, err)
			}
			expectClosed(t, raw)
			expectStillServing(t, srv, addr)
		})
	}

	t.Run("gob-first-frame", func(t *testing.T) {
		srv, addr := startServerHandle(t, "m", model)
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()
		legacy := encodeRequests(t, &Request{ID: 1, ModelID: "m", Cut: -1, Shape: act.Shape, Activation: act.Data})
		if _, err := raw.Write(legacy); err != nil {
			t.Fatal(err)
		}
		expectClosed(t, raw)
		expectStillServing(t, srv, addr)
	})

	// The client side of a refusal: a server that accepts no version is a
	// transport failure — retried on a fresh connection, fed to the breaker,
	// never mistaken for a remote error.
	t.Run("client-counts-refusal-as-transport-failure", func(t *testing.T) {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer lis.Close()
		go func() {
			for {
				conn, err := lis.Accept()
				if err != nil {
					return
				}
				bc := newBinCodec(conn, 0, nil, nil, serverWireNames)
				var f frame
				if bc.readFrame(&f) == nil {
					_ = bc.writeHelloAck(0, 0)
				}
				_ = conn.Close()
			}
		}()
		opts := fastOpts()
		opts.MaxAttempts = 2
		opts.BreakerThreshold = 2
		client, err := DialResilient(lis.Addr().String(), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		_, err = client.Offload("m", -1, act)
		if !errors.Is(err, ErrUnavailable) || !strings.Contains(err.Error(), errVersionRefused.Error()) {
			t.Fatalf("err = %v, want ErrUnavailable naming the refused version", err)
		}
		if st := client.Stats(); st.Redials != 2 || st.Retries != 1 || st.BreakerOpens != 1 {
			t.Fatalf("stats = %+v, want 2 dials, 1 retry and the breaker tripped", st)
		}
	})
}

// TestWireNarrowedAccuracy measures what float32 narrowing costs on a real
// model: logits must track the full-precision forward to float32-roundoff
// scale, and the top class must not flip on this well-separated net.
func TestWireNarrowedAccuracy(t *testing.T) {
	model := testNet(t, 81)
	addr := startServer(t, "m", model)
	opts := fastOpts()
	opts.Wire = WireConfig{NarrowActivations: true}
	client, err := DialResilient(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	rng := rand.New(rand.NewSource(82))
	for i := 0; i < 8; i++ {
		x := tensor.Randn(rng, 1, 3, 12, 12)
		act, err := model.ForwardRange(x, 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		want, err := model.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		logits, err := client.Offload("m", 2, act)
		if err != nil {
			t.Fatal(err)
		}
		wantTop, gotTop := 0, 0
		for j := range logits {
			if diff := math.Abs(logits[j] - want.Data[j]); diff > 1e-4 {
				t.Fatalf("input %d logit %d drifted %v under f32 narrowing", i, j, diff)
			}
			if logits[j] > logits[gotTop] {
				gotTop = j
			}
			if want.Data[j] > want.Data[wantTop] {
				wantTop = j
			}
		}
		if wantTop != gotTop {
			t.Fatalf("input %d: top class flipped %d -> %d under f32 narrowing", i, wantTop, gotTop)
		}
	}
}

// TestWireMetricsCounted asserts the codec meters frame bytes and
// encode/decode cost through the attached sink, and reads no clock and
// counts nothing when none is attached.
func TestWireMetricsCounted(t *testing.T) {
	model := testNet(t, 83)
	addr := startServer(t, "m", model)
	sink := newFakeSink()
	opts := fastOpts()
	opts.Metrics = sink
	client, err := DialResilient(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	rng := rand.New(rand.NewSource(84))
	x := tensor.Randn(rng, 1, 3, 12, 12)
	act, err := model.ForwardRange(x, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	const offloads = 4
	for i := 0; i < offloads; i++ {
		if _, err := client.Offload("m", 2, act); err != nil {
			t.Fatal(err)
		}
	}
	// Request frames dominate: activation elements × 8 bytes each, plus the
	// envelope, per offload.
	minTx := int64(offloads * len(act.Data) * 8)
	if tx := sink.count(MetricWireTxBytes); tx < minTx {
		t.Fatalf("tx bytes = %d, want ≥ %d", tx, minTx)
	}
	if rx := sink.count(MetricWireRxBytes); rx <= 0 {
		t.Fatalf("rx bytes = %d, want > 0", rx)
	}
	if n := sink.observations(MetricWireEncodeNS); n != offloads {
		t.Fatalf("encode_ns observations = %d, want %d", n, offloads)
	}
	if n := sink.observations(MetricWireDecodeNS); n != offloads {
		t.Fatalf("decode_ns observations = %d, want %d", n, offloads)
	}
}

// TestMeterWithReachesLiveConnection: a client metered after its first
// offload must report serving.wire.* from the connection it already holds,
// not only from the next redial.
func TestMeterWithReachesLiveConnection(t *testing.T) {
	model := testNet(t, 85)
	addr := startServer(t, "m", model)
	client, err := dialPlain(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	act := tensor.New(3, 12, 12)
	if _, err := client.Offload("m", -1, act); err != nil {
		t.Fatal(err)
	}
	sink := newFakeSink()
	client.MeterWith(sink)
	if _, err := client.Offload("m", -1, act); err != nil {
		t.Fatal(err)
	}
	if st := client.Stats(); st.Redials != 1 {
		t.Fatalf("redials = %d, want the one original connection", st.Redials)
	}
	if tx, rx := sink.count(MetricWireTxBytes), sink.count(MetricWireRxBytes); tx < int64(len(act.Data)*8) || rx <= 0 {
		t.Fatalf("wire bytes after late MeterWith = %d tx / %d rx, want one metered round trip", tx, rx)
	}
	if n := sink.observations(MetricWireEncodeNS); n != 1 {
		t.Fatalf("encode_ns observations = %d, want 1", n)
	}
	// An attached sink is never displaced.
	other := newFakeSink()
	client.MeterWith(other)
	if _, err := client.Offload("m", -1, act); err != nil {
		t.Fatal(err)
	}
	if got := other.count(MetricWireTxBytes); got != 0 {
		t.Fatalf("second MeterWith displaced the first sink (%d tx bytes)", got)
	}
}

// TestWireBadBatchCountsKeepTheStream: a well-framed payload whose batch
// count, shape and data disagree is a malformed payload — consumed whole,
// answered, never a poisoned connection and never an allocation sized from
// the lie — so the next frame on the same stream decodes.
func TestWireBadBatchCountsKeepTheStream(t *testing.T) {
	const maxElems = 1 << 10
	good := &Request{ID: 9, ModelID: "m", Cut: -1, Shape: []int{3, 12, 12}, Activation: make([]float64, 2*3*12*12), Batch: 2}
	for _, bad := range badBatchCounts {
		t.Run(bad.name, func(t *testing.T) {
			conn := newLoopConn()
			conn.buf.Write(rawFrame(t, bad.ftype, bad.payload))
			dec := newBinCodec(conn, maxElems, nil, nil, serverWireNames)
			var err error
			if bad.ftype == frameRequest {
				err = dec.readRequest(new(Request))
			} else {
				err = dec.readResponse(new(Response))
			}
			var malformed *malformedPayloadError
			if !errors.As(err, &malformed) {
				t.Fatalf("decode = %v, want a malformed-payload error", err)
			}
			if conn.buf.Len() != 0 {
				t.Fatalf("%d bytes of the rejected frame left on the stream", conn.buf.Len())
			}
			if cap(dec.rbuf) > int(dec.maxFrame) {
				t.Fatalf("read buffer grew to %d bytes past the %d-byte frame limit", cap(dec.rbuf), dec.maxFrame)
			}
			if bad.ftype != frameRequest {
				return
			}

			// The same bytes against a live server: rejected as a remote
			// error, counted once, and the connection carries on.
			srv := NewServer()
			srv.MaxPayloadElems = maxElems
			if err := srv.Register("m", testNet(t, 87)); err != nil {
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
			raw, err := net.Dial("tcp", lis.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer raw.Close()
			if err := raw.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
				t.Fatal(err)
			}
			bc, err := negotiate(raw, WireConfig{}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := raw.Write(rawFrame(t, frameRequest, bad.payload)); err != nil {
				t.Fatal(err)
			}
			var resp Response
			if err := bc.readResponse(&resp); err != nil || !strings.HasPrefix(resp.Err, "malformed request") || resp.Batch != 0 {
				t.Fatalf("answer to the bad frame = %+v, %v; want a malformed-request error response", resp, err)
			}
			if err := bc.writeRequest(good, reqItems(good)); err != nil {
				t.Fatal(err)
			}
			if err := bc.readResponse(&resp); err != nil || resp.Err != "" || resp.ID != good.ID || resp.Batch != 2 {
				t.Fatalf("answer after the bad frame = %+v, %v; want two logit rows", resp, err)
			}
			if served, failed := srv.Stats(); served != 2 || failed != 1 {
				t.Fatalf("server stats = %d served / %d failed, want 2/1", served, failed)
			}
		})
	}
}
