package collector

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mburst/internal/asic"
	"mburst/internal/obs"
	"mburst/internal/simclock"
	"mburst/internal/wire"
)

func mkSample(i int) wire.Sample {
	return wire.Sample{
		Time:  simclock.Epoch.Add(simclock.Micros(int64(i) * 25)),
		Port:  uint16(i % 4),
		Dir:   asic.TX,
		Kind:  asic.KindBytes,
		Value: uint64(i) * 1000,
	}
}

func TestClientBatching(t *testing.T) {
	var buf bytes.Buffer
	c, err := NewClientConfigured(&buf, ClientConfig{Rack: 3, MaxBatch: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		c.Emit(mkSample(i))
	}
	// 2 full batches flushed, 5 samples pending.
	r := wire.NewReader(bytes.NewReader(buf.Bytes()))
	total := 0
	for {
		b, err := r.ReadBatch()
		if err != nil {
			break
		}
		if b.Rack != 3 {
			t.Errorf("rack = %d", b.Rack)
		}
		total += len(b.Samples)
	}
	if total != 20 {
		t.Errorf("auto-flushed %d samples, want 20", total)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	r = wire.NewReader(bytes.NewReader(buf.Bytes()))
	total = 0
	for {
		b, err := r.ReadBatch()
		if err != nil {
			break
		}
		total += len(b.Samples)
	}
	if total != 25 {
		t.Errorf("after flush: %d samples, want 25", total)
	}
}

type failWriter struct{ fail bool }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.fail {
		return 0, errors.New("boom")
	}
	return len(p), nil
}

func TestClientStickyError(t *testing.T) {
	fw := &failWriter{fail: true}
	c, err := NewClientConfigured(fw, ClientConfig{Rack: 1, MaxBatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	c.Emit(mkSample(0))
	c.Emit(mkSample(1)) // triggers failing flush
	if err := c.Flush(); err == nil {
		t.Fatal("expected error")
	}
	fw.fail = false
	if err := c.Flush(); err == nil {
		t.Error("error should be sticky")
	}
}

func TestClientDefaultBatchSize(t *testing.T) {
	c, err := NewClientConfigured(&bytes.Buffer{}, ClientConfig{Rack: 0})
	if err != nil {
		t.Fatal(err)
	}
	if c.maxBatch != DefaultBatchSize {
		t.Errorf("maxBatch = %d", c.maxBatch)
	}
}

func TestEndToEndOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sink := &MemSink{}
	srv := ServeConfigured(ln, sink.Handle, ServerConfig{})
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClientConfigured(conn, ClientConfig{Rack: 9, MaxBatch: 16})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		c.Emit(mkSample(i))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Wait for the server goroutine to drain the stream.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if len(sink.Samples()) == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d/%d samples", len(sink.Samples()), n)
		}
		time.Sleep(time.Millisecond)
	}
	got := sink.Samples()
	for i, s := range got {
		if s != mkSample(i) {
			t.Fatalf("sample %d corrupted in transit: %+v", i, s)
		}
	}
	if sink.Batches() == 0 {
		t.Error("no batches recorded")
	}
	if err := srv.LastErr(); err != nil {
		t.Errorf("server error: %v", err)
	}
}

func TestServerMultipleClients(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sink := &MemSink{}
	srv := ServeConfigured(ln, sink.Handle, ServerConfig{})
	defer srv.Close()

	const clients, per = 4, 50
	done := make(chan error, clients)
	for cl := 0; cl < clients; cl++ {
		go func(cl int) {
			conn, err := net.Dial("tcp", srv.Addr().String())
			if err != nil {
				done <- err
				return
			}
			c, err := NewClientConfigured(conn, ClientConfig{Rack: uint32(cl), MaxBatch: 7})
			if err != nil {
				done <- err
				return
			}
			for i := 0; i < per; i++ {
				c.Emit(mkSample(i))
			}
			done <- c.Close()
		}(cl)
	}
	for i := 0; i < clients; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(sink.Samples()) < clients*per {
		if time.Now().After(deadline) {
			t.Fatalf("received %d/%d", len(sink.Samples()), clients*per)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestServerRejectsGarbage(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sink := &MemSink{}
	srv := ServeConfigured(ln, sink.Handle, ServerConfig{})
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("this is not a batch stream at all, not even close"))
	conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for srv.LastErr() == nil {
		if time.Now().After(deadline) {
			t.Fatal("server never flagged the corrupt stream")
		}
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(srv.LastErr(), wire.ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", srv.LastErr())
	}
}

// pipeListener accepts the server side of one net.Pipe, then blocks
// until closed.
type pipeListener struct {
	conns  chan net.Conn
	addr   net.Addr
	closed chan struct{}
	once   sync.Once
}

func newPipeListener(conn net.Conn) *pipeListener {
	l := &pipeListener{conns: make(chan net.Conn, 1), addr: conn.LocalAddr(), closed: make(chan struct{})}
	l.conns <- conn
	return l
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error   { l.once.Do(func() { close(l.closed) }); return nil }
func (l *pipeListener) Addr() net.Addr { return l.addr }

// readCountingConn counts the Read calls the server makes on its side,
// and closes eof when one returns io.EOF — the last Read serveConn makes.
type readCountingConn struct {
	net.Conn
	reads atomic.Int64
	eof   chan struct{}
}

func (c *readCountingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	n, err := c.Conn.Read(p)
	if err == io.EOF {
		close(c.eof)
	}
	return n, err
}

// TestServerCoalescesFrameReads sends 512 32-sample frames in one Write
// over a net.Pipe, whose Reads return at most what one Write holds, so
// the count is deterministic: the server must make one Read per 4 KiB
// buffer-full (bufio's default) plus the one that finds the end, not
// several per frame.
func TestServerCoalescesFrameReads(t *testing.T) {
	const frames, perFrame, bufSize = 512, 32, 4096
	var stream bytes.Buffer
	c, err := NewClientConfigured(&stream, ClientConfig{Rack: 1, MaxBatch: perFrame})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < frames*perFrame; i++ {
		c.Emit(mkSample(i))
	}
	client, server := net.Pipe()
	conn := &readCountingConn{Conn: server, eof: make(chan struct{})}
	handled := 0 // written by the one connection goroutine, read after srv.Close
	srv := ServeConfigured(newPipeListener(conn), func(*wire.Batch) { handled++ }, ServerConfig{})
	defer srv.Close()
	if _, err := client.Write(stream.Bytes()); err != nil {
		t.Fatal(err)
	}
	client.Close()
	// Closing the server's side before it reads the end would fail its
	// read with io.ErrClosedPipe, a decode error.
	select {
	case <-conn.eof:
	case <-time.After(10 * time.Second):
		t.Fatal("server never read the end of the stream")
	}
	srv.Close()
	if err := srv.LastErr(); err != nil {
		t.Fatalf("server error: %v", err)
	}
	if handled != frames {
		t.Fatalf("handler saw %d batches, want %d", handled, frames)
	}
	reads, bound := conn.reads.Load(), int64((stream.Len()+bufSize-1)/bufSize+1)
	t.Logf("%d frames (%d B): %d conn reads", frames, stream.Len(), reads)
	if reads > bound {
		t.Errorf("%d frames (%d B) took %d conn reads, want <= %d", frames, stream.Len(), reads, bound)
	}
}

func TestServeConfiguredInjectedClock(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// A deterministic clock that advances 40 µs per reading: every batch
	// must be stamped with exactly that latency, proving the ingest path
	// reads the injected clock and never the wall clock.
	var mu sync.Mutex
	fake := time.Unix(0, 0)
	now := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		fake = fake.Add(40 * time.Microsecond)
		return fake
	}
	reg := obs.NewRegistry()
	m := NewServerMetrics(reg)
	sink := &MemSink{}
	srv := ServeConfigured(ln, sink.Handle, ServerConfig{Metrics: m, Now: now})
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClientConfigured(conn, ClientConfig{Rack: 1, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		c.Emit(mkSample(i))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.IngestLatency.Count() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no ingest latency observation recorded")
		}
		time.Sleep(time.Millisecond)
	}
	if got, want := m.IngestLatency.Sum(), 40.0; got != want {
		t.Errorf("ingest latency sum = %v µs, want exactly %v (injected clock step)", got, want)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeConfigured(ln, (&MemSink{}).Handle, ServerConfig{})
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

func TestServeNilHandlerPanics(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	defer func() {
		if recover() == nil {
			t.Error("nil handler did not panic")
		}
	}()
	ServeConfigured(ln, nil, ServerConfig{})
}
