package serving

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"cadmc/internal/nn"
	"cadmc/internal/tensor"
)

// Server completes partitioned inferences for registered executable models.
// It is safe for concurrent use; each connection is handled by its own
// goroutine, and request frames on one connection are processed sequentially:
// a frame carries a whole micro-batch, its suffix runs as one batched forward,
// and the client has exactly one frame outstanding.
//
// Two guards keep dead or malicious clients from exhausting the server: an
// idle/read deadline per connection (IdleTimeout) so abandoned sockets
// cannot pin handler goroutines, and a per-request payload cap
// (MaxPayloadElems, enforced both on decoded bytes and on the shape
// product) so a crafted frame cannot force an unbounded allocation.
type Server struct {
	// IdleTimeout bounds how long a connection may sit between requests,
	// how long one request frame may take to arrive and how long one
	// response may take to drain; zero or negative means
	// DefaultIdleTimeout. Set before Serve.
	IdleTimeout time.Duration
	// MaxPayloadElems caps the activation element count per request frame
	// (all items of the batch together); zero means DefaultMaxPayloadElems.
	// Set before Serve.
	MaxPayloadElems int
	// Metrics, when set, receives wire frame bytes and decode cost under
	// serving.server.wire.* names. Set before Serve.
	Metrics MetricSink

	mu     sync.Mutex
	models map[string]*nn.Net
	conns  map[net.Conn]struct{}
	lis    net.Listener
	closed bool
	wg     sync.WaitGroup
	served int64
	failed int64
}

// Stats reports how many inferences completed successfully and how many were
// answered with an error since the server started. It counts items, not
// frames: a batch of N served is N served, a batch of N rejected is N failed,
// and a frame too malformed to say how many items it held is one failed.
func (s *Server) Stats() (served, failed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.served, s.failed
}

// NewServer returns an empty server.
func NewServer() *Server {
	return &Server{
		models: make(map[string]*nn.Net),
		conns:  make(map[net.Conn]struct{}),
	}
}

// Register makes a model available under id. The net must be executable;
// requests reference it by id and cut index.
func (s *Server) Register(id string, net *nn.Net) error {
	if id == "" || net == nil {
		return errors.New("serving: register needs an id and a model")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.models[id]; dup {
		return fmt.Errorf("serving: model %q already registered", id)
	}
	s.models[id] = net
	return nil
}

// DefaultIdleTimeout is the per-connection idle deadline a Server applies
// when IdleTimeout is unset: there is no wait-forever mode.
const DefaultIdleTimeout = 30 * time.Second

// idleTimeout resolves the per-connection deadline.
func (s *Server) idleTimeout() time.Duration {
	if s.IdleTimeout > 0 {
		return s.IdleTimeout
	}
	return DefaultIdleTimeout
}

// maxElems resolves the payload cap.
func (s *Server) maxElems() int {
	if s.MaxPayloadElems > 0 {
		return s.MaxPayloadElems
	}
	return DefaultMaxPayloadElems
}

// Serve accepts connections on lis until Close is called. It blocks; run it
// in a goroutine and use Close for shutdown.
func (s *Server) Serve(lis net.Listener) error {
	if err := s.listenOn(lis); err != nil {
		return err
	}
	return s.accept(lis)
}

// listenOn makes lis the listener Close will close.
func (s *Server) listenOn(lis net.Listener) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("serving: server closed")
	}
	s.lis = lis
	return nil
}

// accept is Serve's loop; a listener closed by Close ends it without error.
func (s *Server) accept(lis net.Listener) error {
	for {
		conn, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("serving: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		// The Add must happen under the same critical section that checks
		// closed: if it moved after Unlock, a concurrent Close could pass
		// wg.Wait before this handler is counted and return while the
		// handler still runs.
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// ServeLoopback serves on an ephemeral loopback port in a goroutine of its
// own and returns the address to dial. stop closes the server, joins that
// goroutine and returns the accept loop's error, or else Close's. The
// listener is registered before ServeLoopback returns, so a stop that runs
// before the goroutine is scheduled still closes it and reports no error.
func (s *Server) ServeLoopback() (addr string, stop func() error, err error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("serving: loopback listen: %w", err)
	}
	if err := s.listenOn(lis); err != nil {
		_ = lis.Close()
		return "", nil, err
	}
	served := make(chan error, 1)
	go func() { served <- s.accept(lis) }()
	return lis.Addr().String(), func() error {
		closeErr := s.Close()
		if err := <-served; err != nil {
			return err
		}
		return closeErr
	}, nil
}

// Close stops accepting, closes every live connection, and waits for the
// handlers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	lis := s.lis
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.mu.Unlock()
	var err error
	if lis != nil {
		err = lis.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) handle(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	// The handshake runs under the same idle deadline as every later
	// frame, so a client that connects and goes mute is reaped on schedule.
	c, err := s.handshake(conn)
	if err != nil {
		return
	}
	idle := s.idleTimeout()
	// One Request reused across the loop: frames on a connection are
	// sequential and the activations are consumed inside complete, so the
	// codec can decode every frame into the same backing arrays.
	req := new(Request)
	for {
		if err := conn.SetReadDeadline(time.Now().Add(idle)); err != nil {
			return
		}
		if err := c.readRequest(req); err != nil {
			if derr := conn.SetWriteDeadline(time.Now().Add(idle)); derr != nil {
				return
			}
			if errors.Is(err, ErrFrameResync) {
				// The damaged frame was consumed whole: tell the client the
				// stream is aligned and keep serving this connection.
				if c.writeResync() != nil {
					return
				}
				continue
			}
			var malformed *malformedPayloadError
			if errors.As(err, &malformed) {
				// Framed and checksummed, but the content is invalid: an
				// application-level rejection, not a stream poisoning.
				s.mu.Lock()
				s.failed++
				s.mu.Unlock()
				if c.writeResponse(&Response{Err: "malformed request: " + malformed.reason}, nil) != nil {
					return
				}
				continue
			}
			// EOF, closed-connection errors and expired idle deadlines end
			// the session quietly: there is nobody worth answering.
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || isTimeout(err) {
				return
			}
			_ = c.writeResponse(&Response{Err: "malformed request: " + err.Error()}, nil)
			return
		}
		resp := Response{ID: req.ID}
		rows, err := s.complete(req)
		s.mu.Lock()
		if err == nil {
			s.served += int64(req.Batch)
		} else {
			resp.Err = err.Error()
			s.failed += int64(req.Batch)
		}
		s.mu.Unlock()
		if err := conn.SetWriteDeadline(time.Now().Add(idle)); err != nil {
			return
		}
		if err := c.writeResponse(&resp, rows); err != nil {
			return
		}
	}
}

// isTimeout reports whether err is a network deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// complete runs the cloud half of one request frame: the suffix after the cut
// over the whole batch in one batched forward, which streams each layer's
// weights once per batch and is bit-identical, row for row, to completing the
// items one at a time. It returns one logits tensor per item.
func (s *Server) complete(req *Request) ([]*tensor.Tensor, error) {
	s.mu.Lock()
	model := s.models[req.ModelID]
	s.mu.Unlock()
	if model == nil {
		return nil, fmt.Errorf("unknown model %q", req.ModelID)
	}
	if req.Cut < -1 || req.Cut >= len(model.Model.Layers) {
		return nil, fmt.Errorf("cut %d out of range", req.Cut)
	}
	acts, err := activationTensors(req, s.maxElems())
	if err != nil {
		return nil, err
	}
	return model.ForwardRangeBatch(acts, req.Cut+1, len(model.Model.Layers))
}
