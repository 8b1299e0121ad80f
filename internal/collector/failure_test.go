package collector

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"mburst/internal/wire"
)

// TestServerSurvivesMidBatchDisconnect kills a client mid-stream and
// verifies the server flags the torn stream (or a clean cut between
// batches) without crashing, and keeps serving other clients.
func TestServerSurvivesMidBatchDisconnect(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sink := &MemSink{}
	srv := ServeConfigured(ln, sink.Handle, ServerConfig{})
	defer srv.Close()

	// Victim connection: write half a batch and slam the connection.
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	legacy, _ := legacyStream(t)
	if _, err := conn.Write(legacy[:20]); err != nil { // its first frame is 60 bytes
		t.Fatal(err)
	}
	conn.Close()

	// A healthy client must still be served.
	conn2, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClientConfigured(conn2, ClientConfig{Rack: 2, MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		c.Emit(mkSample(i))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(sink.Samples()) < 16 {
		if time.Now().After(deadline) {
			t.Fatalf("healthy client starved: got %d samples", len(sink.Samples()))
		}
		time.Sleep(time.Millisecond)
	}
	// The victim's partial batch must not have been delivered.
	for _, s := range sink.Samples() {
		if s != mkSample(int(s.Value/1000)) {
			t.Fatalf("corrupted sample leaked: %+v", s)
		}
	}
}

// TestClientAgainstClosedServer verifies transport errors surface through
// Flush/Close instead of being dropped.
func TestClientAgainstClosedServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	// Accept never happened; the OS may buffer some writes, so pump until
	// the error materializes.
	c, err := NewClientConfigured(conn, ClientConfig{Rack: 1, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	var flushErr error
	for i := 0; i < 100000 && flushErr == nil; i++ {
		c.Emit(mkSample(i))
		flushErr = c.Flush()
	}
	conn.Close()
	if flushErr == nil {
		// Depending on kernel buffering the write may only fail at close.
		flushErr = c.Close()
	}
	if flushErr == nil {
		t.Skip("kernel buffered everything; nothing to assert on this host")
	}
}

// TestBatchBoundaryResilience verifies that a stream of valid batches
// followed by garbage delivers the valid prefix.
func TestBatchBoundaryResilience(t *testing.T) {
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
	good, want := legacyStream(t)
	conn.Write(good)
	conn.Write([]byte("GARBAGE GARBAGE GARBAGE"))
	conn.Close()

	deadline := time.Now().Add(5 * time.Second)
	for len(sink.Samples()) < len(want) {
		if time.Now().After(deadline) {
			t.Fatalf("valid prefix not delivered: %d/%d samples", len(sink.Samples()), len(want))
		}
		time.Sleep(time.Millisecond)
	}
	for srv.LastErr() == nil {
		if time.Now().After(deadline) {
			t.Fatal("garbage tail not flagged")
		}
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(srv.LastErr(), wire.ErrCorrupt) && !errors.Is(srv.LastErr(), io.ErrUnexpectedEOF) {
		t.Errorf("unexpected error type: %v", srv.LastErr())
	}
}
