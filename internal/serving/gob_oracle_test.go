package serving

import (
	"encoding/gob"
	"errors"
	"io"
	"net"
)

// The gob framing this package spoke before the binary codec survives here,
// out of the production build, as the reference decoder FuzzDecodeFrame
// compares the binary codec against.

// errPayloadTooLarge aborts a gob decode whose frame exceeds the
// per-request byte budget.
var errPayloadTooLarge = errors.New("serving: request frame exceeds the payload limit")

// byteLimitedReader meters a connection's reads against a per-frame budget
// so one malicious or corrupt length prefix cannot force the decoder to
// buffer an unbounded frame. The budget is reset before each request.
type byteLimitedReader struct {
	r         io.Reader
	limit     int64
	remaining int64
}

func (b *byteLimitedReader) reset() { b.remaining = b.limit }

func (b *byteLimitedReader) Read(p []byte) (int, error) {
	if b.remaining <= 0 {
		return 0, errPayloadTooLarge
	}
	if int64(len(p)) > b.remaining {
		p = p[:b.remaining]
	}
	n, err := b.r.Read(p)
	b.remaining -= int64(n)
	return n, err
}

// gobCodec decodes gob request frames, each metered against a byte budget.
type gobCodec struct {
	dec *gob.Decoder
	lim *byteLimitedReader
}

// newLimitedGobCodec builds the oracle: request reads are metered against
// limitBytes per frame.
func newLimitedGobCodec(conn net.Conn, limitBytes int64) *gobCodec {
	lim := &byteLimitedReader{r: conn, limit: limitBytes}
	return &gobCodec{dec: gob.NewDecoder(lim), lim: lim}
}

func (c *gobCodec) readRequest(r *Request) error {
	c.lim.reset()
	// Gob omits zero-valued fields on the wire, so decoding into a reused
	// struct would leak the previous frame's values; reset first.
	*r = Request{}
	return c.dec.Decode(r)
}
