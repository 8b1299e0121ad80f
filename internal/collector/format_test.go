package collector

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"reflect"
	"testing"
	"time"

	"mburst/internal/wire"
)

// legacyStream returns what a legacy agent put on the socket — the wire
// package's parent-written MBW1/MBW2 fixture, the only legacy bytes there
// are now that every writer speaks MBW3 — and the samples it carries.
func legacyStream(t *testing.T) (stream []byte, samples []wire.Sample) {
	t.Helper()
	stream, err := os.ReadFile("../wire/testdata/legacy_parent.bin")
	if err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(bytes.NewReader(stream))
	for {
		b, err := r.ReadBatch()
		if err == io.EOF {
			return stream, samples
		}
		if err != nil {
			t.Fatal(err)
		}
		samples = append(samples, b.Samples...)
	}
}

// awaitSamples polls sink until it holds n samples.
func awaitSamples(t *testing.T, name string, sink *MemSink, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(sink.Samples()) < n {
		if time.Now().After(deadline) {
			t.Fatalf("%s: received %d/%d samples", name, len(sink.Samples()), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClientFormatsEndToEnd ships samples to a live server in every format
// a server can meet: MBW3 from a client, whichever way its leftover Format
// field is spelled, and MBW1/MBW2 as the bytes a legacy agent wrote. The
// sink must receive them exactly — the server dispatches per batch magic.
func TestClientFormatsEndToEnd(t *testing.T) {
	serve := func(t *testing.T) (*Server, *MemSink, net.Conn) {
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
		return srv, sink, conn
	}
	for _, f := range []wire.Format{0, wire.FormatMBW3} {
		srv, sink, conn := serve(t)
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
		awaitSamples(t, f.String(), sink, n)
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

	srv, sink, conn := serve(t)
	stream, want := legacyStream(t)
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	awaitSamples(t, "legacy", sink, len(want))
	if got := sink.Samples(); !reflect.DeepEqual(got, want) {
		t.Fatalf("legacy stream corrupted in transit:\n got %+v\nwant %+v", got, want)
	}
	if err := srv.LastErr(); err != nil {
		t.Errorf("legacy: server error: %v", err)
	}
	srv.Close()

	for _, f := range []wire.Format{wire.FormatMBW1, wire.FormatMBW2, wire.Format(42)} {
		if _, err := NewClientConfigured(io.Discard, ClientConfig{Format: f}); err == nil {
			t.Errorf("NewClientConfigured accepted format %v", f)
		}
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
