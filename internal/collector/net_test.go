package collector

import (
	"bytes"
	"errors"
	"net"
	"sync"
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
