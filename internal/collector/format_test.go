package collector

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"mburst/internal/wire"
)

// TestClientFormatsEndToEnd ships the same samples through a client of
// every wire format to a live server; the sink must receive them exactly
// regardless of format — the server negotiates per batch magic.
func TestClientFormatsEndToEnd(t *testing.T) {
	for _, f := range []wire.Format{0, wire.FormatMBW1, wire.FormatMBW2, wire.FormatMBW3} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		sink := &MemSink{}
		srv := ServeConfigured(ln, sink.Handle, ServerConfig{})
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewClientConfigured(conn, ClientConfig{Rack: 9, MaxBatch: 16, Format: f})
		if err != nil {
			t.Fatalf("format %v: %v", f, err)
		}
		const n = 100
		for i := 0; i < n; i++ {
			c.Emit(mkSample(i))
		}
		if err := c.Close(); err != nil {
			t.Fatalf("format %v: %v", f, err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for len(sink.Samples()) < n {
			if time.Now().After(deadline) {
				t.Fatalf("format %v: received %d/%d samples", f, len(sink.Samples()), n)
			}
			time.Sleep(time.Millisecond)
		}
		for i, s := range sink.Samples() {
			if s != mkSample(i) {
				t.Fatalf("format %v: sample %d corrupted in transit: %+v", f, i, s)
			}
		}
		if err := srv.LastErr(); err != nil {
			t.Errorf("format %v: server error: %v", f, err)
		}
		srv.Close()
	}
	if _, err := NewClientConfigured(io.Discard, ClientConfig{Format: wire.Format(42)}); err == nil {
		t.Error("NewClientConfigured accepted format 42")
	}
}

// flakyConn fails its nth write, simulating a transport that dies
// mid-stream so the reconnecting client must redial.
type flakyConn struct {
	io.WriteCloser
	writes  int
	failAt  int
	tripped bool
}

func (f *flakyConn) Write(p []byte) (int, error) {
	f.writes++
	if f.writes == f.failAt {
		f.tripped = true
		f.WriteCloser.Close()
		return 0, errors.New("injected transport failure")
	}
	return f.WriteCloser.Write(p)
}

// TestReconnectingClientMBW3Redial kills the transport mid-stream: the
// client must redial with a fresh MBW3 codec, and the server — seeing a
// fresh connection — must decode the continued stream exactly. This is
// the delta-chain reset contract under reconnection.
func TestReconnectingClientMBW3Redial(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sink := &MemSink{}
	srv := ServeConfigured(ln, sink.Handle, ServerConfig{})
	defer srv.Close()

	dials := 0
	dial := func() (io.WriteCloser, error) {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			return nil, err
		}
		dials++
		if dials == 1 {
			// First transport dies on its third batch write.
			return &flakyConn{WriteCloser: conn, failAt: 3}, nil
		}
		return conn, nil
	}
	c := NewReconnectingClient(dial, ReconnectingClientConfig{
		Rack:         4,
		Epoch:        2,
		MaxBatch:     8,
		Format:       wire.FormatMBW3,
		RetryBackoff: time.Millisecond,
	})
	const n = 64
	for i := 0; i < n; i++ {
		c.Emit(mkSample(i))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(sink.Samples()) < n {
		if time.Now().After(deadline) {
			t.Fatalf("received %d/%d samples (dials=%d, dropped=%d)",
				len(sink.Samples()), n, dials, c.DroppedSamples())
		}
		time.Sleep(time.Millisecond)
	}
	if dials < 2 {
		t.Fatalf("transport failure did not force a redial (dials=%d)", dials)
	}
	// The two connections' tails may drain in either order; verify the
	// delivered multiset instead of global order.
	seen := make(map[wire.Sample]int, n)
	for _, s := range sink.Samples() {
		seen[s]++
	}
	for i := 0; i < n; i++ {
		if seen[mkSample(i)] != 1 {
			t.Fatalf("sample %d delivered %d times across the redial", i, seen[mkSample(i)])
		}
	}
	if err := srv.LastErr(); err != nil {
		t.Errorf("server error: %v", err)
	}
}

func TestReconnectingClientRejectsBadFormat(t *testing.T) {
	dial := func() (io.WriteCloser, error) { return nil, errors.New("unused") }
	mustPanic := func(name string, cfg ReconnectingClientConfig) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		NewReconnectingClient(dial, cfg)
	}
	mustPanic("unknown format", ReconnectingClientConfig{Format: wire.Format(42)})
	mustPanic("mbw1 with epoch", ReconnectingClientConfig{Format: wire.FormatMBW1, Epoch: 3})
}
