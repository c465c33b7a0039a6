package serving

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"math"
	"net"
	"testing"
	"time"

	"cadmc/internal/tensor"
)

// fuzzConn adapts a byte buffer into the net.Conn the codec wants: reads
// come from the fuzzed payload, writes and deadlines are swallowed.
type fuzzConn struct {
	r io.Reader
}

func (c *fuzzConn) Read(p []byte) (int, error)       { return c.r.Read(p) }
func (c *fuzzConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *fuzzConn) Close() error                     { return nil }
func (c *fuzzConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *fuzzConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *fuzzConn) SetDeadline(time.Time) error      { return nil }
func (c *fuzzConn) SetReadDeadline(time.Time) error  { return nil }
func (c *fuzzConn) SetWriteDeadline(time.Time) error { return nil }

// loopConn buffers writes and serves them back to reads — an in-memory
// loopback for encode→decode round trips.
type loopConn struct {
	fuzzConn
	buf bytes.Buffer
}

func newLoopConn() *loopConn {
	c := &loopConn{}
	c.r = &c.buf
	return c
}

func (c *loopConn) Write(p []byte) (int, error) { return c.buf.Write(p) }

// encodeRequests gob-encodes a frame sequence the way a legacy client would.
func encodeRequests(tb testing.TB, reqs ...*Request) []byte {
	tb.Helper()
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for _, r := range reqs {
		if err := enc.Encode(r); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// reqItems cuts a request's flat activation into the Batch tensors (one when
// Batch is unset) the encoder is handed.
func reqItems(r *Request) []*tensor.Tensor {
	return flatItems(r.Activation, r.Batch)
}

func flatItems(data []float64, n int) []*tensor.Tensor {
	n = max(n, 1)
	per := len(data) / n
	items := make([]*tensor.Tensor, n)
	for i := range items {
		items[i] = &tensor.Tensor{Data: data[i*per : (i+1)*per]}
	}
	return items
}

// encodeBinaryRequests frames a request sequence with the binary codec.
func encodeBinaryRequests(tb testing.TB, maxElems int, narrow bool, reqs ...*Request) []byte {
	tb.Helper()
	conn := newLoopConn()
	bc := newBinCodec(conn, maxElems, nil, nil, clientWireNames)
	bc.narrow = narrow
	for _, r := range reqs {
		if err := bc.writeRequest(r, reqItems(r)); err != nil {
			tb.Fatal(err)
		}
	}
	return conn.buf.Bytes()
}

// rawFrame seals an arbitrary payload into a well-formed frame — intact
// header, matching checksum — so a test can put counts on the wire that no
// encoder would.
func rawFrame(tb testing.TB, ftype byte, payload []byte) []byte {
	tb.Helper()
	conn := newLoopConn()
	bc := newBinCodec(conn, 0, nil, nil, clientWireNames)
	if err := bc.seal(append(bc.stage(), payload...), wireVersion, ftype, 0); err != nil {
		tb.Fatal(err)
	}
	return conn.buf.Bytes()
}

// rawRequestPayload lays out a request payload for model "m", cut 0, with
// the given dims, batch count and element count, followed by dataElems
// float64 zeros — each free to disagree with the others.
func rawRequestPayload(dims []uint32, n, count uint32, dataElems int) []byte {
	p := binary.LittleEndian.AppendUint64(nil, 1) // ID
	p = binary.LittleEndian.AppendUint64(p, 0)    // Cut
	p = binary.LittleEndian.AppendUint16(p, 1)
	p = append(p, 'm')
	p = append(p, byte(len(dims)))
	for _, d := range dims {
		p = binary.LittleEndian.AppendUint32(p, d)
	}
	p = binary.LittleEndian.AppendUint32(p, n)
	p = binary.LittleEndian.AppendUint32(p, count)
	return append(p, make([]byte, dataElems*8)...)
}

// rawResponsePayload is rawRequestPayload's counterpart for responses.
func rawResponsePayload(n, count uint32, dataElems int) []byte {
	p := binary.LittleEndian.AppendUint64(nil, 1) // ID
	p = binary.LittleEndian.AppendUint16(p, 0)    // no Err
	p = binary.LittleEndian.AppendUint32(p, n)
	p = binary.LittleEndian.AppendUint32(p, count)
	return append(p, make([]byte, dataElems*8)...)
}

// badBatchCounts are the ways a well-framed payload can lie about its batch:
// every one must be a malformedPayloadError — the frame was consumed, the
// stream is aligned — and none may size an allocation from the lie.
var badBatchCounts = []struct {
	name    string
	ftype   byte
	payload []byte
}{
	{"request-empty-batch", frameRequest, rawRequestPayload([]uint32{2, 2}, 0, 0, 0)},
	{"request-batch-times-elems-overflows-int", frameRequest, rawRequestPayload([]uint32{1 << 31, 1 << 31}, 1<<31, 0, 0)},
	{"request-batch-times-elems-over-cap", frameRequest, rawRequestPayload([]uint32{16, 16}, 5, 5*256, 5*256)},
	{"request-huge-batch-of-nothing", frameRequest, rawRequestPayload([]uint32{0}, 1<<32-1, 0, 0)},
	{"request-count-short-of-batch", frameRequest, rawRequestPayload([]uint32{2, 2}, 3, 8, 8)},
	{"request-count-past-batch", frameRequest, rawRequestPayload([]uint32{2, 2}, 1, 8, 8)},
	{"request-data-short-of-count", frameRequest, rawRequestPayload([]uint32{2, 2}, 2, 8, 7)},
	{"response-logits-not-divisible", frameResponse, rawResponsePayload(3, 10, 10)},
	{"response-logits-without-rows", frameResponse, rawResponsePayload(0, 5, 5)},
	{"response-logits-over-cap", frameResponse, rawResponsePayload(1, 1<<10+1, 0)},
}

// binaryRoundTrippable reports whether req survives the binary wire format
// at all — gob happily carries negative dimensions and oversized shapes the
// explicit format rejects at encode time.
func binaryRoundTrippable(req *Request, maxElems int) bool {
	if len(req.ModelID) > math.MaxUint16 || len(req.Shape) > math.MaxUint8 {
		return false
	}
	for _, d := range req.Shape {
		if d < 0 || int64(d) > math.MaxUint32 {
			return false
		}
	}
	return len(req.Activation) <= maxElems
}

// sameRequest compares two requests bit-exactly (floats by bit pattern, so
// NaN payloads round-trip too).
func sameRequest(a, b *Request) bool {
	if a.ID != b.ID || a.Cut != b.Cut || a.ModelID != b.ModelID || a.Batch != b.Batch {
		return false
	}
	if len(a.Shape) != len(b.Shape) || len(a.Activation) != len(b.Activation) {
		return false
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			return false
		}
	}
	for i := range a.Activation {
		if math.Float64bits(a.Activation[i]) != math.Float64bits(b.Activation[i]) {
			return false
		}
	}
	return true
}

// FuzzDecodeFrame drives both server-side decode paths — the byte-metered
// gob oracle and the checksummed binary codec — and the client-side response
// decoder with arbitrary bytes, then differentially round-trips every frame
// the oracle accepted through the binary format. The contract under fuzz: no
// decoder panics, none admits more elements than the payload limit whatever
// batch count the bytes claim, a decoded batch is always N ≥ 1 whole items,
// and any gob frame the binary format can express decodes back
// bit-identical, batch count included.
func FuzzDecodeFrame(f *testing.F) {
	const maxElems = 1 << 10
	// Seed with well-formed gob frames, a truncated frame, a frame whose
	// shape product overflows, and garbage.
	f.Add(encodeRequests(f, &Request{
		ID: 1, ModelID: "m", Cut: 2,
		Shape:      []int{2, 3, 4},
		Activation: make([]float64, 24),
		Batch:      1,
	}))
	f.Add(encodeRequests(f, &Request{
		ID: 5, ModelID: "m", Cut: 2,
		Shape:      []int{2, 3, 4},
		Activation: make([]float64, 3*24),
		Batch:      3,
	}))
	f.Add(encodeRequests(f, &Request{
		ID: 2, ModelID: "m", Cut: -1,
		Shape:      []int{1 << 20, 1 << 20, 1 << 20}, // product overflows int64
		Activation: nil,
	}))
	valid := encodeRequests(f, &Request{ID: 3, ModelID: "x", Shape: []int{1}, Activation: []float64{0}})
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(bytes.Repeat([]byte{0x7f}, 256))
	// Seed well-formed binary frames in both widths, one with a flipped
	// payload byte (checksum resync), one with a flipped header byte, and a
	// frame whose claimed length exceeds the budget.
	wellFormed := &Request{
		ID: 4, ModelID: "bin", Cut: 1,
		Shape:      []int{2, 2, 2},
		Activation: []float64{1, 2, 3, 4, 5, 6, 7, 8},
	}
	batched := &Request{
		ID: 6, ModelID: "bin", Cut: 1,
		Shape:      []int{2, 2},
		Activation: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
		Batch:      3,
	}
	binFrames := encodeBinaryRequests(f, maxElems, false, wellFormed, batched)
	f.Add(binFrames)
	f.Add(encodeBinaryRequests(f, maxElems, true, wellFormed, batched))
	// Well-framed payloads whose batch counts lie, each followed by a good
	// frame the decoder must still reach.
	for _, bad := range badBatchCounts {
		f.Add(append(rawFrame(f, bad.ftype, bad.payload), binFrames...))
	}
	corruptPayload := append([]byte(nil), binFrames...)
	corruptPayload[wireHeaderLen+3] ^= 0xFF
	f.Add(corruptPayload)
	corruptHeader := append([]byte(nil), binFrames...)
	corruptHeader[6] ^= 0xFF
	f.Add(corruptHeader)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Same budget formula Server.handshake uses, scaled to the fuzz
		// limit.
		limit := int64(maxElems)*8 + 4096
		oracle := newLimitedGobCodec(&fuzzConn{r: bytes.NewReader(data)}, limit)
		var accepted []*Request
		for frames := 0; frames < 16; frames++ {
			var req Request
			if err := oracle.readRequest(&req); err != nil {
				// Any error is a fine outcome for hostile bytes — the
				// server closes the stream. Panics and runaway allocations
				// are the bugs this fuzz hunts.
				break
			}
			// The metered reader must have enforced the frame budget before
			// gob ever materialised the payload.
			if len(req.Activation) > maxElems {
				t.Fatalf("gob decoded an activation of %d elements through a %d-element budget",
					len(req.Activation), maxElems)
			}
			checkTensor(t, &req, maxElems)
			accepted = append(accepted, &req)
		}

		// The binary decoder over the same raw bytes: recoverable errors
		// (checksum resync, malformed-but-framed payloads) keep the stream,
		// anything else ends it — and nothing may panic or overshoot the
		// budget.
		bc := newBinCodec(&fuzzConn{r: bytes.NewReader(data)}, maxElems, nil, nil, serverWireNames)
		req := new(Request)
		for frames := 0; frames < 16; frames++ {
			err := bc.readRequest(req)
			if err == nil {
				if len(req.Activation) > maxElems {
					t.Fatalf("binary codec decoded an activation of %d elements past the %d-element budget",
						len(req.Activation), maxElems)
				}
				// What the decoder accepts is a whole batch: the server's
				// own validation has nothing left to reject.
				if _, err := activationTensors(req, maxElems); err != nil {
					t.Fatalf("binary codec accepted a frame the server cannot slice into items: %v", err)
				}
				checkTensor(t, req, maxElems)
				continue
			}
			var malformed *malformedPayloadError
			if errors.Is(err, ErrFrameResync) || errors.As(err, &malformed) {
				continue
			}
			break
		}

		// The client-side decoder over the same bytes, under the same rules.
		bc = newBinCodec(&fuzzConn{r: bytes.NewReader(data)}, maxElems, nil, nil, clientWireNames)
		resp := new(Response)
		for frames := 0; frames < 16; frames++ {
			err := bc.readResponse(resp)
			if err == nil {
				if len(resp.Logits) > maxElems {
					t.Fatalf("binary codec decoded %d logits past the %d-element budget", len(resp.Logits), maxElems)
				}
				if resp.Batch == 0 && len(resp.Logits) != 0 || resp.Batch != 0 && len(resp.Logits)%resp.Batch != 0 {
					t.Fatalf("binary codec accepted %d logits in %d rows", len(resp.Logits), resp.Batch)
				}
				continue
			}
			var malformed *malformedPayloadError
			if errors.Is(err, ErrFrameResync) || errors.As(err, &malformed) {
				continue
			}
			break
		}

		// Differential leg: every frame the gob oracle accepted that the
		// binary format can express must round-trip bit-identically when it
		// is a whole batch — and be accepted or turned away as malformed, on
		// a stream left aligned, when its batch count, shape and data
		// disagree.
		for _, orig := range accepted {
			if !binaryRoundTrippable(orig, maxElems) {
				continue
			}
			items, wholeErr := activationTensors(orig, maxElems)
			if wholeErr != nil {
				// Gob carries any Batch beside any shape and data; the binary
				// encoder counts the items it is handed, so ship the data as
				// one and let the decoder judge it.
				items = flatItems(orig.Activation, 1)
			}
			conn := newLoopConn()
			enc := newBinCodec(conn, maxElems, nil, nil, clientWireNames)
			if err := enc.writeRequest(orig, items); err != nil {
				t.Fatalf("binary encode of a gob-accepted request failed: %v", err)
			}
			dec := newBinCodec(conn, maxElems, nil, nil, serverWireNames)
			var got Request
			err := dec.readRequest(&got)
			if wholeErr != nil {
				var malformed *malformedPayloadError
				if err != nil && !errors.As(err, &malformed) {
					t.Fatalf("inconsistent batch (%v) decoded to %v, want a malformed-payload error", wholeErr, err)
				}
				if conn.buf.Len() != 0 {
					t.Fatalf("decoder left %d bytes of a rejected frame on the stream", conn.buf.Len())
				}
				continue
			}
			if err != nil {
				t.Fatalf("binary round trip of a gob-accepted request failed to decode: %v", err)
			}
			if !sameRequest(orig, &got) {
				t.Fatalf("binary round trip diverged from the gob oracle:\n gob: %+v\n bin: %+v", orig, &got)
			}
		}
	})
}

// checkTensor asserts activationTensors' cap invariants for one request.
func checkTensor(t *testing.T, req *Request, maxElems int) {
	t.Helper()
	acts, err := activationTensors(req, maxElems)
	if err != nil {
		return
	}
	total := 0
	for _, x := range acts {
		total += x.Len()
	}
	if total > maxElems {
		t.Fatalf("activationTensors admitted %d elements past the %d limit", total, maxElems)
	}
	if len(acts) != req.Batch || total != len(req.Activation) {
		t.Fatalf("%d tensors of %d elements disagree with a batch of %d over a %d-element payload",
			len(acts), total, req.Batch, len(req.Activation))
	}
}
