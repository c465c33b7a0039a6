package serving

import (
	"bytes"
	"fmt"
	"net"
	"time"

	"cadmc/internal/tensor"
)

// Wire bench modes accepted by NewWireBench. They name the codec being
// driven, not a negotiation outcome: the bench bypasses the handshake and
// talks straight to the codec, which is the thing being measured.
const (
	WireBenchBinary = "binary"
	WireBenchF32    = "binary_f32"
)

// loopbackConn is an in-memory net.Conn for single-goroutine codec
// benchmarking: writes append to a buffer, reads drain it. No goroutines, no
// syscalls — a measurement over it is pure codec cost.
type loopbackConn struct {
	buf bytes.Buffer
}

func (l *loopbackConn) Read(p []byte) (int, error)       { return l.buf.Read(p) }
func (l *loopbackConn) Write(p []byte) (int, error)      { return l.buf.Write(p) }
func (l *loopbackConn) Close() error                     { return nil }
func (l *loopbackConn) LocalAddr() net.Addr              { return loopbackAddr{} }
func (l *loopbackConn) RemoteAddr() net.Addr             { return loopbackAddr{} }
func (l *loopbackConn) SetDeadline(time.Time) error      { return nil }
func (l *loopbackConn) SetReadDeadline(time.Time) error  { return nil }
func (l *loopbackConn) SetWriteDeadline(time.Time) error { return nil }

type loopbackAddr struct{}

func (loopbackAddr) Network() string { return "loopback" }
func (loopbackAddr) String() string  { return "loopback" }

// WireBench drives the codec over an in-memory loopback so a benchmark can
// measure steady-state encode+decode cost with nothing else in the way. It is
// a benchmarking seam, not a transport: both halves of the "connection" run
// on the caller's goroutine.
type WireBench struct {
	c    *binCodec
	conn *loopbackConn

	// Decode targets are reused across round trips: steady state, the
	// binary codec re-fills them without allocating. act and logits are the
	// one-item batches the encoder is handed, re-pointed at each round
	// trip's data.
	reqScratch  Request
	respScratch Response
	act, logits [1]*tensor.Tensor

	reqBytes  int
	respBytes int
}

// NewWireBench builds a bench rig for one codec mode (WireBenchBinary or
// WireBenchF32).
func NewWireBench(mode string) (*WireBench, error) {
	if mode != WireBenchBinary && mode != WireBenchF32 {
		return nil, fmt.Errorf("serving: unknown wire bench mode %q", mode)
	}
	conn := &loopbackConn{}
	c := newBinCodec(conn, DefaultMaxPayloadElems, nil, nil, clientWireNames)
	c.narrow = mode == WireBenchF32
	b := &WireBench{c: c, conn: conn}
	b.act[0], b.logits[0] = new(tensor.Tensor), new(tensor.Tensor)
	return b, nil
}

// RoundTrip pushes one single-item offload's worth of codec work through the
// loopback: encode req, decode it into a reused scratch, encode resp, decode
// it back — two frames, each encoded and decoded once.
func (b *WireBench) RoundTrip(req *Request, resp *Response) error {
	// The loopback cannot park — an empty buffer reads io.EOF — so its
	// deadline is a no-op; arming it keeps the package rule (no codec I/O
	// without a deadline) free of exceptions.
	_ = b.conn.SetDeadline(time.Time{})
	b.act[0].Data, b.logits[0].Data = req.Activation, resp.Logits
	if err := b.c.writeRequest(req, b.act[:]); err != nil {
		return err
	}
	b.reqBytes = b.conn.buf.Len()
	if err := b.c.readRequest(&b.reqScratch); err != nil {
		return err
	}
	if err := b.c.writeResponse(resp, b.logits[:]); err != nil {
		return err
	}
	b.respBytes = b.conn.buf.Len()
	if err := b.c.readResponse(&b.respScratch); err != nil {
		return err
	}
	return nil
}

// FrameBytes reports the encoded request and response frame sizes observed on
// the most recent RoundTrip.
func (b *WireBench) FrameBytes() (reqBytes, respBytes int) {
	return b.reqBytes, b.respBytes
}

// DecodedRequest exposes the scratch request the last RoundTrip decoded into,
// so callers can sanity-check fidelity (e.g. f32 narrowing error bounds).
func (b *WireBench) DecodedRequest() *Request { return &b.reqScratch }
