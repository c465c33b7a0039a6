// Binary wire codec for the offload hot path.
//
// Frames are length-prefixed with a fixed 20-byte little-endian header:
//
//	offset  size  field
//	0       2     magic 0xC4 0xDC
//	2       1     protocol version (wireVersion)
//	3       1     frame type (hello / helloAck / request / response)
//	4       2     flags (bit0 = activations narrowed to float32,
//	              bit1 = resync notification)
//	6       4     payload length in bytes
//	10      8     lane-folded FNV-64a checksum of the payload (fnv64aLanes)
//	18      2     header check: FNV-64a of bytes 0..17 folded to 16 bits
//
// The header check makes the two failure classes separable: a damaged
// header (unknown length — the stream cannot be trusted) poisons the
// connection, while a damaged payload under an intact header is fully
// consumed and surfaces as ErrFrameResync — the stream is still
// frame-aligned and the request can simply be retried on the same
// connection. Bytes that do not open with the magic are a bad frame like any
// other: the connection is closed without an answer.
package serving

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"cadmc/internal/tensor"
)

const (
	wireMagic0 = 0xC4
	wireMagic1 = 0xDC
	// wireVersion is the only binary protocol version this build speaks.
	// Version 2 put the batch count into the request and response payloads;
	// a version 1 peer is refused at the hello like any other foreign one.
	wireVersion = 2

	wireHeaderLen  = 20
	headerCheckOff = 18

	frameHello    = 1
	frameHelloAck = 2
	frameRequest  = 3
	frameResponse = 4

	// flagActF32 narrows request activations to float32 on the wire (half
	// the bytes, lossy). Negotiated: the client requests it, the server
	// grants the intersection with what it supports.
	flagActF32 = 1 << 0
	// flagResync marks a response frame that answers no request: the server
	// received a checksum-damaged frame, discarded it, and is telling the
	// client the stream is still aligned and the request is worth retrying.
	flagResync = 1 << 1

	// wireSupportedFlags is the negotiable feature set of wireVersion.
	wireSupportedFlags = flagActF32
)

// ErrFrameResync reports a frame whose header survived transit but whose
// payload failed its checksum. The frame was fully consumed, so the stream
// is still aligned: the connection stays usable and the request is safe to
// retry as-is. ResilientClient counts these separately from breaker-tripping
// transport failures — a flaky link is not a dead cloud.
var ErrFrameResync = errors.New("serving: wire frame failed its payload checksum (stream still aligned)")

// errBadFrame reports an unrecoverable framing violation — bad magic, a
// damaged header, an oversized length, or an unexpected frame type. The
// stream position can no longer be trusted and the connection is poisoned.
var errBadFrame = errors.New("serving: invalid wire frame")

// errVersionRefused reports a hello ack that accepted no version: the server
// does not speak wireVersion. The connection is useless, so ResilientClient
// counts it as a transport failure like any other failed handshake.
var errVersionRefused = errors.New("serving: server refused the proposed wire version")

// malformedPayloadError reports a frame that was delivered and checksummed
// intact but whose content is invalid (bad lengths, truncated fields). The
// stream stays aligned; the server answers with an error response instead of
// dropping the connection.
type malformedPayloadError struct{ reason string }

func (e *malformedPayloadError) Error() string {
	return "serving: malformed frame payload: " + e.reason
}

// WireConfig tunes the client side of the wire protocol. The zero value —
// bit-exact float64 activations — is the default and keeps every determinism
// contract intact.
type WireConfig struct {
	// NarrowActivations requests float32 narrowing of request activations:
	// half the bytes on the wire, at the cost of bit-exactness (drift is
	// pinned by TestWireNarrowedAccuracy). Only honoured when the server
	// grants it.
	NarrowActivations bool
}

// wireMetricNames routes codec metering to side-specific metric names so an
// in-process client and server sharing one registry never double-count.
type wireMetricNames struct {
	txBytes, rxBytes, encodeNS, decodeNS string
}

var clientWireNames = wireMetricNames{
	txBytes:  MetricWireTxBytes,
	rxBytes:  MetricWireRxBytes,
	encodeNS: MetricWireEncodeNS,
	decodeNS: MetricWireDecodeNS,
}

var serverWireNames = wireMetricNames{
	txBytes:  MetricWireServerTxBytes,
	rxBytes:  MetricWireServerRxBytes,
	encodeNS: MetricWireServerEncodeNS,
	decodeNS: MetricWireServerDecodeNS,
}

// fnv64a is the same FNV-64a the integrity manifests use, over a byte slice.
func fnv64a(p []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range p {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// fnv64aLanes is the payload checksum: four independent FNV-64a chains over
// 64-bit little-endian words, folded together (with any tail bytes) through
// a final byte-serial pass. The classic byte-serial loop is one multiply per
// byte, and the multiply's latency chain caps it near memory-copy speed —
// slow enough to dominate the codec's cost on large activations. Four
// independent chains keep the multiplier pipelined, which makes the checksum
// an order of magnitude cheaper while remaining pure Go.
// It is a distinct hash from byte-serial FNV-64a; both ends must agree,
// which wireVersion pins.
func fnv64aLanes(p []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h0 := uint64(offset64)
	h1 := uint64(offset64) ^ 1
	h2 := uint64(offset64) ^ 2
	h3 := uint64(offset64) ^ 3
	for len(p) >= 32 {
		h0 = (h0 ^ binary.LittleEndian.Uint64(p[0:8])) * prime64
		h1 = (h1 ^ binary.LittleEndian.Uint64(p[8:16])) * prime64
		h2 = (h2 ^ binary.LittleEndian.Uint64(p[16:24])) * prime64
		h3 = (h3 ^ binary.LittleEndian.Uint64(p[24:32])) * prime64
		p = p[32:]
	}
	h := ((h0*prime64^h1)*prime64^h2)*prime64 ^ h3
	for len(p) >= 8 {
		h = (h ^ binary.LittleEndian.Uint64(p[:8])) * prime64
		p = p[8:]
	}
	for _, b := range p {
		h = (h ^ uint64(b)) * prime64
	}
	return h
}

// fold16 collapses a 64-bit hash to the 16-bit header check.
func fold16(h uint64) uint16 {
	return uint16(h ^ h>>16 ^ h>>32 ^ h>>48)
}

// frame is one decoded wire frame; payload aliases the codec's read buffer
// and is only valid until the next readFrame.
type frame struct {
	version byte
	ftype   byte
	flags   uint16
	payload []byte
}

// binCodec is the zero-allocation binary codec. Encode stages header and
// payload contiguously into one reused write buffer (a single conn.Write per
// frame); decode reads into one reused buffer and parses in place, reusing
// the destination struct's slice capacity. Steady-state offloads therefore
// allocate nothing per frame.
type binCodec struct {
	conn net.Conn
	// narrow is the negotiated flagActF32: writeRequest ships float32.
	narrow   bool
	maxElems int
	maxFrame int64

	// metrics/nowNS meter frame bytes and encode/decode cost when attached;
	// nil skips every clock read so unmetered replays are byte-identical.
	metrics MetricSink
	nowNS   func() int64
	names   wireMetricNames

	mu   sync.Mutex // serialises writers sharing the codec
	wbuf []byte
	rbuf []byte
	hdr  [wireHeaderLen]byte
}

func newBinCodec(conn net.Conn, maxElems int, m MetricSink, nowNS func() int64, names wireMetricNames) *binCodec {
	if maxElems <= 0 {
		maxElems = DefaultMaxPayloadElems
	}
	return &binCodec{
		conn:     conn,
		maxElems: maxElems,
		maxFrame: int64(maxElems)*8 + 4096,
		metrics:  m,
		nowNS:    nowNS,
		names:    names,
	}
}

// stamp reads the metering clock, or 0 when metering is off.
func (c *binCodec) stamp() int64 {
	if c.metrics == nil || c.nowNS == nil {
		return 0
	}
	return c.nowNS()
}

func (c *binCodec) meterEncode(start int64, frameBytes int) {
	if c.metrics == nil {
		return
	}
	if c.nowNS != nil {
		c.metrics.Observe(c.names.encodeNS, float64(c.nowNS()-start))
	}
	c.metrics.Count(c.names.txBytes, int64(frameBytes))
}

func (c *binCodec) meterDecode(start int64, frameBytes int) {
	if c.metrics == nil {
		return
	}
	if c.nowNS != nil {
		c.metrics.Observe(c.names.decodeNS, float64(c.nowNS()-start))
	}
	c.metrics.Count(c.names.rxBytes, int64(frameBytes))
}

// stage returns the write buffer sized to hold a header, ready for payload
// appends. Callers hold c.mu.
func (c *binCodec) stage() []byte {
	buf := c.wbuf
	if cap(buf) < wireHeaderLen {
		buf = make([]byte, 0, 4096)
	}
	return buf[:wireHeaderLen]
}

// seal fills the header in buf[0:wireHeaderLen] for the payload staged after
// it and writes the whole frame with one conn.Write. Callers hold c.mu.
func (c *binCodec) seal(buf []byte, version, ftype byte, flags uint16) error {
	payload := buf[wireHeaderLen:]
	if int64(len(payload)) > c.maxFrame {
		return fmt.Errorf("serving: %d-byte payload exceeds the %d-byte frame limit",
			len(payload), c.maxFrame)
	}
	buf[0] = wireMagic0
	buf[1] = wireMagic1
	buf[2] = version
	buf[3] = ftype
	binary.LittleEndian.PutUint16(buf[4:6], flags)
	binary.LittleEndian.PutUint32(buf[6:10], uint32(len(payload)))
	binary.LittleEndian.PutUint64(buf[10:18], fnv64aLanes(payload))
	binary.LittleEndian.PutUint16(buf[headerCheckOff:wireHeaderLen], fold16(fnv64a(buf[:headerCheckOff])))
	c.wbuf = buf
	if _, err := c.conn.Write(buf); err != nil {
		return err
	}
	return nil
}

// readFrame reads and validates one frame. A header that fails validation
// returns errBadFrame (unrecoverable); a payload that fails its checksum
// under an intact header returns ErrFrameResync with the frame fully
// consumed. f.payload aliases the codec's read buffer.
func (c *binCodec) readFrame(f *frame) error {
	if _, err := io.ReadFull(c.conn, c.hdr[:]); err != nil {
		return err
	}
	if c.hdr[0] != wireMagic0 || c.hdr[1] != wireMagic1 {
		return fmt.Errorf("%w: bad magic %#02x%02x", errBadFrame, c.hdr[0], c.hdr[1])
	}
	if fold16(fnv64a(c.hdr[:headerCheckOff])) != binary.LittleEndian.Uint16(c.hdr[headerCheckOff:wireHeaderLen]) {
		return fmt.Errorf("%w: header check mismatch", errBadFrame)
	}
	f.version = c.hdr[2]
	f.ftype = c.hdr[3]
	f.flags = binary.LittleEndian.Uint16(c.hdr[4:6])
	plen := int64(binary.LittleEndian.Uint32(c.hdr[6:10]))
	if plen > c.maxFrame {
		return fmt.Errorf("%w: %d-byte payload exceeds the %d-byte frame limit",
			errBadFrame, plen, c.maxFrame)
	}
	if f.ftype == frameRequest || f.ftype == frameResponse {
		if f.version != wireVersion {
			return fmt.Errorf("%w: version %d frame on a version %d stream",
				errBadFrame, f.version, wireVersion)
		}
	}
	if int64(cap(c.rbuf)) < plen {
		c.rbuf = make([]byte, plen)
	}
	f.payload = c.rbuf[:plen]
	if _, err := io.ReadFull(c.conn, f.payload); err != nil {
		return err
	}
	if fnv64aLanes(f.payload) != binary.LittleEndian.Uint64(c.hdr[10:18]) {
		return ErrFrameResync
	}
	return nil
}

// writeHello sends the client's opening frame: proposed version in the
// header, requested feature flags, empty payload.
func (c *binCodec) writeHello(version byte, want uint16) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seal(c.stage(), version, frameHello, want)
}

// writeHelloAck answers a hello: granted flags in the header, the accepted
// version as a 1-byte payload (0 = proposal refused; the server hangs up).
func (c *binCodec) writeHelloAck(accepted byte, granted uint16) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	buf := append(c.stage(), accepted)
	return c.seal(buf, wireVersion, frameHelloAck, granted)
}

// writeResync tells the peer its last frame was discarded on checksum
// failure but the stream is still aligned.
func (c *binCodec) writeResync() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seal(c.stage(), wireVersion, frameResponse, flagResync)
}

// writeRequest frames one request: the envelope from r, then the activations
// in acts, staged item after item straight from the tensors into the write
// buffer — a client batching N of them never builds the concatenated copy.
// The batch count on the wire is len(acts); r.Activation and r.Batch, the
// flat form a frame decodes to, are not read.
func (c *binCodec) writeRequest(r *Request, acts []*tensor.Tensor) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var flags uint16
	if c.narrow {
		flags |= flagActF32
	}
	start := c.stamp()
	buf, err := appendRequestPayload(c.stage(), r, acts, c.narrow)
	if err != nil {
		return err
	}
	n := len(buf)
	if err := c.seal(buf, wireVersion, frameRequest, flags); err != nil {
		return fmt.Errorf("serving: write request frame: %w", err)
	}
	c.meterEncode(start, n)
	return nil
}

func (c *binCodec) readRequest(r *Request) error {
	var f frame
	if err := c.readFrame(&f); err != nil {
		return err
	}
	if f.ftype != frameRequest {
		return fmt.Errorf("%w: frame type %d where a request was expected", errBadFrame, f.ftype)
	}
	start := c.stamp()
	if err := parseRequestPayload(f.payload, f.flags, r, c.maxElems); err != nil {
		return err
	}
	c.meterDecode(start, wireHeaderLen+len(f.payload))
	return nil
}

// writeResponse frames one response: ID and Err from r, then one logit row per
// tensor in rows (none on an error response), staged like writeRequest's
// activations; r.Logits and r.Batch are not read.
func (c *binCodec) writeResponse(r *Response, rows []*tensor.Tensor) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	start := c.stamp()
	buf, err := appendResponsePayload(c.stage(), r, rows)
	if err != nil {
		return err
	}
	n := len(buf)
	if err := c.seal(buf, wireVersion, frameResponse, 0); err != nil {
		return fmt.Errorf("serving: write response frame: %w", err)
	}
	c.meterEncode(start, n)
	return nil
}

func (c *binCodec) readResponse(r *Response) error {
	var f frame
	if err := c.readFrame(&f); err != nil {
		return err
	}
	if f.flags&flagResync != 0 {
		// The server discarded our damaged frame; the stream is aligned
		// and the request is retryable on this same connection.
		return ErrFrameResync
	}
	if f.ftype != frameResponse {
		return fmt.Errorf("%w: frame type %d where a response was expected", errBadFrame, f.ftype)
	}
	start := c.stamp()
	if err := parseResponsePayload(f.payload, r, c.maxElems); err != nil {
		return err
	}
	c.meterDecode(start, wireHeaderLen+len(f.payload))
	return nil
}

// --- payload encoding -----------------------------------------------------
//
// Request payload:  u64 ID · i64 Cut · u16 len + ModelID bytes ·
//                   u8 ndims + ndims×u32 dims · u32 N · u32 count +
//                   activation data: N activations of ∏dims elements each,
//                   item after item (count = N×∏dims; count×8 bytes of
//                   float64, or count×4 when flagActF32)
// Response payload: u64 ID · u16 len + Err bytes · u32 N · u32 count +
//                   count×8 bytes of float64 logits: N rows of count/N
//                   (an error response carries N = 0 and no logits)
//
// One ID, one Err and one checksum cover the whole batch: model, cut, shape
// and element count are shared by its items, so everything a server can
// reject is batch-wide.

// appendCounts stages the batch count and the total element count of the
// given tensors, checking both fit their u32 fields.
func appendCounts(buf []byte, items []*tensor.Tensor) ([]byte, error) {
	total := 0
	for _, it := range items {
		total += len(it.Data)
	}
	if uint64(len(items)) > math.MaxUint32 || uint64(total) > math.MaxUint32 {
		return nil, fmt.Errorf("serving: %d items of %d elements do not fit the wire format", len(items), total)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(items)))
	return binary.LittleEndian.AppendUint32(buf, uint32(total)), nil
}

func appendRequestPayload(buf []byte, r *Request, acts []*tensor.Tensor, narrow bool) ([]byte, error) {
	if len(r.ModelID) > math.MaxUint16 {
		return nil, fmt.Errorf("serving: model id of %d bytes does not fit the wire format", len(r.ModelID))
	}
	if len(r.Shape) > math.MaxUint8 {
		return nil, fmt.Errorf("serving: %d-dimensional shape does not fit the wire format", len(r.Shape))
	}
	buf = binary.LittleEndian.AppendUint64(buf, r.ID)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(r.Cut)))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.ModelID)))
	buf = append(buf, r.ModelID...)
	buf = append(buf, byte(len(r.Shape)))
	for _, d := range r.Shape {
		if d < 0 || int64(d) > math.MaxUint32 {
			return nil, fmt.Errorf("serving: dimension %d does not fit the wire format", d)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(d))
	}
	buf, err := appendCounts(buf, acts)
	if err != nil {
		return nil, err
	}
	for _, act := range acts {
		if narrow {
			for _, v := range act.Data {
				buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(v)))
			}
		} else {
			for _, v := range act.Data {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			}
		}
	}
	return buf, nil
}

// wireReader parses little-endian fields out of a payload in place.
type wireReader struct {
	p   []byte
	off int
}

func (w *wireReader) remaining() int { return len(w.p) - w.off }

func (w *wireReader) u8() (byte, bool) {
	if w.remaining() < 1 {
		return 0, false
	}
	v := w.p[w.off]
	w.off++
	return v, true
}

func (w *wireReader) u16() (uint16, bool) {
	if w.remaining() < 2 {
		return 0, false
	}
	v := binary.LittleEndian.Uint16(w.p[w.off:])
	w.off += 2
	return v, true
}

func (w *wireReader) u32() (uint32, bool) {
	if w.remaining() < 4 {
		return 0, false
	}
	v := binary.LittleEndian.Uint32(w.p[w.off:])
	w.off += 4
	return v, true
}

func (w *wireReader) u64() (uint64, bool) {
	if w.remaining() < 8 {
		return 0, false
	}
	v := binary.LittleEndian.Uint64(w.p[w.off:])
	w.off += 8
	return v, true
}

func (w *wireReader) bytes(n int) ([]byte, bool) {
	if n < 0 || w.remaining() < n {
		return nil, false
	}
	b := w.p[w.off : w.off+n]
	w.off += n
	return b, true
}

// setString updates *dst to match b, allocating only when the value actually
// changed — a server decoding the same model id frame after frame allocates
// nothing.
func setString(dst *string, b []byte) {
	if *dst != string(b) {
		*dst = string(b)
	}
}

func parseRequestPayload(p []byte, flags uint16, r *Request, maxElems int) error {
	if maxElems <= 0 {
		maxElems = DefaultMaxPayloadElems
	}
	w := wireReader{p: p}
	id, ok := w.u64()
	if !ok {
		return &malformedPayloadError{reason: "truncated request id"}
	}
	cut, ok := w.u64()
	if !ok {
		return &malformedPayloadError{reason: "truncated cut index"}
	}
	nameLen, ok := w.u16()
	if !ok {
		return &malformedPayloadError{reason: "truncated model id length"}
	}
	name, ok := w.bytes(int(nameLen))
	if !ok {
		return &malformedPayloadError{reason: "truncated model id"}
	}
	ndims, ok := w.u8()
	if !ok {
		return &malformedPayloadError{reason: "truncated shape rank"}
	}
	if cap(r.Shape) < int(ndims) {
		r.Shape = make([]int, ndims)
	}
	r.Shape = r.Shape[:ndims]
	for i := range r.Shape {
		d, ok := w.u32()
		if !ok {
			return &malformedPayloadError{reason: "truncated shape"}
		}
		r.Shape[i] = int(d)
	}
	n, ok := w.u32()
	if !ok {
		return &malformedPayloadError{reason: "truncated batch count"}
	}
	count, ok := w.u32()
	if !ok {
		return &malformedPayloadError{reason: "truncated activation count"}
	}
	// Everything the counts could make the server allocate is bounded here,
	// before a byte of activation is materialised: n×∏shape within the
	// payload cap (so n itself is) and equal to what the frame carries.
	elems, err := batchElems(r.Shape, int(n), maxElems)
	if err != nil {
		return &malformedPayloadError{reason: err.Error()}
	}
	if int(n)*elems != int(count) {
		return &malformedPayloadError{reason: fmt.Sprintf(
			"%d activations of shape %v need %d elements, frame carries %d", n, r.Shape, int(n)*elems, count)}
	}
	elemSize := 8
	if flags&flagActF32 != 0 {
		elemSize = 4
	}
	data, ok := w.bytes(int(count) * elemSize)
	if !ok {
		return &malformedPayloadError{reason: "truncated activation data"}
	}
	if w.remaining() != 0 {
		return &malformedPayloadError{reason: fmt.Sprintf("%d trailing bytes after the activations", w.remaining())}
	}
	r.ID = id
	r.Cut = int(int64(cut))
	r.Batch = int(n)
	setString(&r.ModelID, name)
	if cap(r.Activation) < int(count) {
		r.Activation = make([]float64, count)
	}
	r.Activation = r.Activation[:count]
	if elemSize == 4 {
		for i := range r.Activation {
			r.Activation[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(data[i*4:])))
		}
	} else {
		for i := range r.Activation {
			r.Activation[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
		}
	}
	return nil
}

func appendResponsePayload(buf []byte, r *Response, rows []*tensor.Tensor) ([]byte, error) {
	if len(r.Err) > math.MaxUint16 {
		return nil, fmt.Errorf("serving: error string of %d bytes does not fit the wire format", len(r.Err))
	}
	buf = binary.LittleEndian.AppendUint64(buf, r.ID)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Err)))
	buf = append(buf, r.Err...)
	buf, err := appendCounts(buf, rows)
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		for _, v := range row.Data {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	return buf, nil
}

func parseResponsePayload(p []byte, r *Response, maxElems int) error {
	if maxElems <= 0 {
		maxElems = DefaultMaxPayloadElems
	}
	w := wireReader{p: p}
	id, ok := w.u64()
	if !ok {
		return &malformedPayloadError{reason: "truncated response id"}
	}
	errLen, ok := w.u16()
	if !ok {
		return &malformedPayloadError{reason: "truncated error length"}
	}
	errBytes, ok := w.bytes(int(errLen))
	if !ok {
		return &malformedPayloadError{reason: "truncated error string"}
	}
	n, ok := w.u32()
	if !ok {
		return &malformedPayloadError{reason: "truncated row count"}
	}
	count, ok := w.u32()
	if !ok {
		return &malformedPayloadError{reason: "truncated logits count"}
	}
	if int64(count) > int64(maxElems) {
		return &malformedPayloadError{reason: fmt.Sprintf(
			"%d-element logits exceed the %d-element payload limit", count, maxElems)}
	}
	if n == 0 && count != 0 || n != 0 && count%n != 0 {
		return &malformedPayloadError{reason: fmt.Sprintf("%d logits do not divide into %d rows", count, n)}
	}
	data, ok := w.bytes(int(count) * 8)
	if !ok {
		return &malformedPayloadError{reason: "truncated logits data"}
	}
	if w.remaining() != 0 {
		return &malformedPayloadError{reason: fmt.Sprintf("%d trailing bytes after the logits", w.remaining())}
	}
	r.ID = id
	r.Batch = int(n)
	setString(&r.Err, errBytes)
	if cap(r.Logits) < int(count) {
		r.Logits = make([]float64, count)
	}
	r.Logits = r.Logits[:count]
	for i := range r.Logits {
		r.Logits[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
	}
	return nil
}

// --- negotiation ----------------------------------------------------------

// negotiate runs the client half of the handshake on a fresh connection:
// hello out (wireVersion plus the requested flags), hello ack in. The caller
// arms the connection deadline first: against a dead or silent peer this
// blocks until that deadline fires.
func negotiate(conn net.Conn, cfg WireConfig, m MetricSink, nowNS func() int64) (*binCodec, error) {
	var want uint16
	if cfg.NarrowActivations {
		want |= flagActF32
	}
	bc := newBinCodec(conn, DefaultMaxPayloadElems, m, nowNS, clientWireNames)
	if err := bc.writeHello(wireVersion, want); err != nil {
		return nil, fmt.Errorf("serving: wire hello: %w", err)
	}
	if err := bc.readHelloAck(); err != nil {
		return nil, err
	}
	return bc, nil
}

// readHelloAck reads the server's answer to the hello and adopts the granted
// flags. An ack that accepted no version is errVersionRefused.
func (c *binCodec) readHelloAck() error {
	var f frame
	if err := c.readFrame(&f); err != nil {
		return fmt.Errorf("serving: wire hello ack: %w", err)
	}
	if f.ftype != frameHelloAck || len(f.payload) < 1 {
		return fmt.Errorf("%w: malformed hello ack", errBadFrame)
	}
	switch accepted := f.payload[0]; accepted {
	case wireVersion:
	case 0:
		return errVersionRefused
	default:
		return fmt.Errorf("%w: server accepted version %d, proposed %d", errBadFrame, accepted, wireVersion)
	}
	c.narrow = f.flags&flagActF32 != 0
	return nil
}

// handshake runs the server half under the idle deadline: read the hello,
// grant the intersection of the requested and supported flags. A hello for a
// version this build does not speak is answered with helloAck(0) and the
// connection is dropped; anything that is not a hello frame is dropped
// unanswered.
func (s *Server) handshake(conn net.Conn) (*binCodec, error) {
	if err := conn.SetDeadline(time.Now().Add(s.idleTimeout())); err != nil {
		return nil, err
	}
	bc := newBinCodec(conn, s.maxElems(), s.Metrics, realNowNS(s.Metrics), serverWireNames)
	var f frame
	if err := bc.readFrame(&f); err != nil {
		return nil, err
	}
	if f.ftype != frameHello {
		return nil, fmt.Errorf("%w: frame type %d where a hello was expected", errBadFrame, f.ftype)
	}
	if f.version != wireVersion {
		if err := bc.writeHelloAck(0, 0); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%w: hello proposes unknown version %d", errBadFrame, f.version)
	}
	granted := f.flags & wireSupportedFlags
	if err := bc.writeHelloAck(wireVersion, granted); err != nil {
		return nil, err
	}
	bc.narrow = granted&flagActF32 != 0
	return bc, nil
}

// realNowNS returns the default metering clock: real time when a sink
// is attached, nil (no clock reads at all) otherwise.
func realNowNS(m MetricSink) func() int64 {
	if m == nil {
		return nil
	}
	return func() int64 { return time.Now().UnixNano() }
}

// wireName describes the negotiated codec for stats and tests.
func (c *binCodec) wireName() string {
	name := fmt.Sprintf("binary-v%d", wireVersion)
	if c.narrow {
		name += "+f32"
	}
	return name
}
