package collector

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"mburst/internal/ptrace"
	"mburst/internal/wire"
)

// Client batches samples and ships them to a collector service as wire
// batches. It implements Emitter so it can be plugged directly into a
// Poller ("The CPU batches the samples before sending them to a
// distributed collector service", §4.1).
//
// Client is not safe for concurrent use; a switch runs one sampling loop.
type Client struct {
	w        *wire.Writer
	closer   io.Closer
	batch    wire.Batch
	maxBatch int
	err      error
	tracer   *ptrace.Tracer // set by this package's tests; agents trace through ReconnectingClient
}

// DefaultBatchSize is the flush threshold in samples. At 25 µs sampling a
// batch of 2048 covers ~50 ms of data — small enough for timely delivery,
// large enough to amortize framing.
const DefaultBatchSize = 2048

// ClientConfig selects the client's batching.
type ClientConfig struct {
	// Rack stamps outgoing batches.
	Rack uint32
	// MaxBatch is the flush threshold; <= 0 selects DefaultBatchSize.
	MaxBatch int
	// Format must be zero or wire.FormatMBW3, the one format clients
	// write (see wire.NewWriterFormat). Servers decode per batch magic, so
	// no handshake is needed.
	Format wire.Format
}

// NewClientConfigured returns a client writing batches to w as cfg
// describes. If w also implements io.Closer (e.g. a net.Conn), Close
// closes it. It errors only on a cfg.Format that cannot be written.
func NewClientConfigured(w io.Writer, cfg ClientConfig) (*Client, error) {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultBatchSize
	}
	c := &Client{
		batch:    wire.Batch{Rack: cfg.Rack},
		maxBatch: cfg.MaxBatch,
	}
	bw, err := wire.NewWriterFormat(w, cfg.Format)
	if err != nil {
		return nil, err
	}
	c.w = bw
	if cl, ok := w.(io.Closer); ok {
		c.closer = cl
	}
	return c, nil
}

// SetEpoch sets the agent restart generation stamped on outgoing batches
// (see wire.Batch.Epoch).
func (c *Client) SetEpoch(epoch uint32) { c.batch.Epoch = epoch }

// Emit implements Emitter, buffering s and flushing a full batch.
// Transport errors are sticky and surfaced by Flush/Close.
func (c *Client) Emit(s wire.Sample) {
	if c.err != nil {
		return
	}
	c.batch.Samples = append(c.batch.Samples, s)
	if len(c.batch.Samples) >= c.maxBatch {
		c.err = c.flushLocked()
	}
}

// Flush sends any buffered samples.
func (c *Client) Flush() error {
	if c.err != nil {
		return c.err
	}
	c.err = c.flushLocked()
	return c.err
}

func (c *Client) flushLocked() error {
	if len(c.batch.Samples) == 0 {
		return nil
	}
	err := c.w.WriteBatch(&c.batch)
	if err == nil {
		recordSendSpans(c.tracer, &c.batch, nil)
	}
	c.batch.Samples = c.batch.Samples[:0]
	return err
}

// Close flushes and closes the underlying transport.
func (c *Client) Close() error {
	flushErr := c.Flush()
	if c.closer != nil {
		if err := c.closer.Close(); err != nil && flushErr == nil {
			flushErr = err
		}
	}
	return flushErr
}

// BatchHandler consumes decoded batches. It may be called concurrently,
// once per connection goroutine. The batch (and its Samples slice) is
// only valid for the duration of the call — the server reuses it for the
// next batch on the connection — so handlers that retain samples must
// copy the values out. A handler must not modify b: an archive writes the
// frame b arrived in, which says what b said when it was decoded.
type BatchHandler func(b *wire.Batch)

// ServerConfig tunes a Server beyond the defaults.
type ServerConfig struct {
	// Metrics, when non-nil, receives service telemetry (connection
	// counts, decode errors, per-batch ingest latency).
	Metrics *ServerMetrics
	// Now is the clock used to stamp ingest latency (default time.Now).
	// Simulated runs inject a deterministic clock so the poll path never
	// reads wall time (the same injection pattern as
	// ReconnectingClientConfig.Sleep).
	Now func() time.Time
	// EpochGate, when true, interposes an EpochGate ahead of the handler:
	// batches from superseded agent epochs and time-regressing duplicates
	// within an epoch are dropped before they can corrupt deltas. For
	// handlers other than a Shard, which gates on its own.
	EpochGate bool
	// Tracer, when non-nil, records server.ingest spans for every decoded
	// batch (and epoch.gate spans when EpochGate is set).
	Tracer *ptrace.Tracer
}

// Server is the collector service: it accepts switch connections and
// decodes their batch streams.
type Server struct {
	ln      net.Listener
	handler BatchHandler
	m       ServerMetrics
	now     func() time.Time
	tracer  *ptrace.Tracer

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}

	wg sync.WaitGroup

	errMu   sync.Mutex
	lastErr error
}

// ServeConfigured starts accepting connections on ln, dispatching every
// decoded batch to handler. It returns immediately; Close shuts the
// service down. The zero ServerConfig is a plain, untelemetered server.
func ServeConfigured(ln net.Listener, handler BatchHandler, cfg ServerConfig) *Server {
	if handler == nil {
		panic("collector: nil handler")
	}
	if cfg.EpochGate {
		gate := NewEpochGate(handler, cfg.Metrics)
		gate.tracer = cfg.Tracer
		handler = gate.Handle
	}
	s := &Server{ln: ln, handler: handler, conns: make(map[net.Conn]struct{}), now: cfg.Now, tracer: cfg.Tracer}
	if cfg.Metrics != nil {
		s.m = *cfg.Metrics
	}
	if s.now == nil {
		s.now = time.Now
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listener's address (useful with ":0" listeners).
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// LastErr returns the most recent per-connection decode error, if any.
// A clean EOF is not an error.
func (s *Server) LastErr() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.lastErr
}

func (s *Server) setErr(err error) {
	s.errMu.Lock()
	s.lastErr = err
	s.errMu.Unlock()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	s.m.Conns.Inc()
	s.m.ActiveConns.Add(1)
	defer func() {
		conn.Close()
		s.m.ActiveConns.Add(-1)
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	r := wire.NewReader(conn)
	// Handlers are synchronous (see BatchHandler), so the batch and its
	// samples can be recycled between reads: steady-state ingest does not
	// allocate.
	r.SetReuse(true)
	for {
		b, err := r.ReadBatch()
		if err != nil {
			if !errors.Is(err, io.EOF) && !isClosedConn(err) {
				s.m.DecodeErrors.Inc()
				s.setErr(fmt.Errorf("collector: conn %v: %w", conn.RemoteAddr(), err))
			}
			return
		}
		recordStageSpan(s.tracer, ptrace.StageServerIngest, b, "")
		if s.m.IngestLatency != nil {
			t0 := s.now()
			s.handler(b)
			s.m.IngestLatency.Observe(float64(s.now().Sub(t0)) / 1e3)
		} else {
			s.handler(b)
		}
	}
}

// isClosedConn reports whether err stems from the connection being closed
// underneath the reader during shutdown.
func isClosedConn(err error) bool {
	return errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrUnexpectedEOF)
}

// Close stops accepting, closes active connections, and waits for the
// connection goroutines to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.ln.Close()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// MemSink is a concurrency-safe in-memory batch handler, the simplest
// collector backend (tests, examples, single-process campaigns).
type MemSink struct {
	mu      sync.Mutex
	samples []wire.Sample
	batches int
}

// Handle implements BatchHandler.
func (m *MemSink) Handle(b *wire.Batch) {
	m.mu.Lock()
	m.samples = append(m.samples, b.Samples...)
	m.batches++
	m.mu.Unlock()
}

// Samples returns a copy of everything received so far.
func (m *MemSink) Samples() []wire.Sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]wire.Sample, len(m.samples))
	copy(out, m.samples)
	return out
}

// Batches returns the number of batches received.
func (m *MemSink) Batches() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.batches
}
