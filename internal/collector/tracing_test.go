package collector

import (
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mburst/internal/ptrace"
	"mburst/internal/simclock"
	"mburst/internal/wire"
)

// testBatch builds a small batch with deterministic content.
func testBatch(rack uint32, base simclock.Time, n int) *wire.Batch {
	b := &wire.Batch{Rack: rack}
	for i := 0; i < n; i++ {
		b.Samples = append(b.Samples, wire.Sample{
			Time:  base.Add(simclock.Duration(i) * simclock.Micros(25)),
			Port:  uint16(rack),
			Value: uint64(i) * 100,
		})
	}
	return b
}

// TestClientServerSpansJoin pins the content-derived trace ID contract:
// a batch flushed by a Client and ingested by a Server produces spans on
// both tracers under the same trace ID, so the halves join at render
// time without any wire-format change.
func TestClientServerSpansJoin(t *testing.T) {
	clientTr := ptrace.New(ptrace.Config{Capacity: 64})
	serverTr := ptrace.New(ptrace.Config{Capacity: 64})

	sink := &MemSink{}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeConfigured(ln, sink.Handle, ServerConfig{Tracer: serverTr, EpochGate: true})

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	c, err := NewClientConfigured(conn, ClientConfig{Rack: 7, MaxBatch: n})
	if err != nil {
		t.Fatal(err)
	}
	c.tracer = clientTr
	first := simclock.Epoch.Add(simclock.Millisecond)
	for _, s := range testBatch(7, first, n).Samples {
		c.Emit(s)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(sink.Samples()) < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	clientSpans := clientTr.Snapshot()
	serverSpans := serverTr.Snapshot()
	if len(clientSpans) != 3 { // poll.read, wire.encode, client.send
		t.Fatalf("client spans = %d, want 3: %+v", len(clientSpans), clientSpans)
	}
	if len(serverSpans) != 2 { // server.ingest, epoch.gate
		t.Fatalf("server spans = %d, want 2: %+v", len(serverSpans), serverSpans)
	}
	want := ptrace.BatchID(7, 0, first)
	for _, sp := range append(clientSpans, serverSpans...) {
		if sp.Trace != want {
			t.Errorf("span %s trace = %x, want %x", sp.Stage, sp.Trace, want)
		}
	}
	for _, sp := range serverSpans {
		if sp.Stage == ptrace.StageEpochGate && sp.Verdict != ptrace.VerdictAccept {
			t.Errorf("gate verdict = %q, want %q", sp.Verdict, ptrace.VerdictAccept)
		}
	}
}

// TestGateVerdictSpans pins the drop verdicts: a stale-epoch batch and a
// time-regressing duplicate each record an epoch.gate span carrying the
// reason they were dropped.
func TestGateVerdictSpans(t *testing.T) {
	tr := ptrace.New(ptrace.Config{Capacity: 64})
	sink := &MemSink{}
	gate := NewEpochGate(sink.Handle, nil)
	gate.tracer = tr

	fresh := testBatch(1, simclock.Epoch.Add(simclock.Millisecond), 4)
	fresh.Epoch = 2
	gate.Handle(fresh)

	stale := testBatch(1, simclock.Epoch.Add(2*simclock.Millisecond), 4)
	stale.Epoch = 1
	gate.Handle(stale)

	reorder := testBatch(1, simclock.Epoch, 4) // regresses behind fresh
	reorder.Epoch = 2
	gate.Handle(reorder)

	verdicts := map[string]int{}
	for _, sp := range tr.Snapshot() {
		if sp.Stage != ptrace.StageEpochGate {
			t.Fatalf("unexpected stage %s", sp.Stage)
		}
		verdicts[sp.Verdict]++
	}
	want := map[string]int{
		ptrace.VerdictAccept:      1,
		ptrace.VerdictDropStale:   1,
		ptrace.VerdictDropReorder: 1,
	}
	for v, n := range want {
		if verdicts[v] != n {
			t.Errorf("verdict %q seen %d times, want %d (all: %v)", v, verdicts[v], n, verdicts)
		}
	}
}

// TestSpansEndpointsUnderConcurrentIngest scrapes /spans and /tracez
// while many client connections stream into a traced Server. Under -race
// this is the production shape of the observability surface: connection
// goroutines publishing spans into the ring while HTTP readers snapshot
// it.
func TestSpansEndpointsUnderConcurrentIngest(t *testing.T) {
	const (
		clients          = 4
		batchesPerClient = 20
		samplesPerBatch  = 32
	)
	tracer := ptrace.New(ptrace.Config{Capacity: 1024})
	sink := &MemSink{}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeConfigured(ln, sink.Handle, ServerConfig{Tracer: tracer, EpochGate: true})

	hs := httptest.NewServer(http.NewServeMux())
	defer hs.Close()
	mux := http.NewServeMux()
	mux.Handle("/spans", tracer.SpansHandler())
	mux.Handle("/tracez", tracer.TracezHandler())
	hs.Config.Handler = mux

	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(rack uint32) {
			defer wg.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Errorf("rack %d: dial: %v", rack, err)
				return
			}
			c, err := NewClientConfigured(conn, ClientConfig{Rack: rack, MaxBatch: samplesPerBatch})
			if err != nil {
				t.Errorf("rack %d: client: %v", rack, err)
				return
			}
			c.tracer = tracer
			for b := 0; b < batchesPerClient; b++ {
				base := simclock.Epoch.Add(simclock.Duration(b+1) * simclock.Millisecond)
				for _, s := range testBatch(rack, base, samplesPerBatch).Samples {
					c.Emit(s)
				}
			}
			if err := c.Close(); err != nil {
				t.Errorf("rack %d: close: %v", rack, err)
			}
		}(uint32(cl))
	}
	// Concurrent scrapers hit both endpoints while ingest is live.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				for _, path := range []string{"/spans", "/tracez"} {
					resp, err := http.Get(hs.URL + path)
					if err != nil {
						t.Errorf("GET %s: %v", path, err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("GET %s: %s", path, resp.Status)
					}
				}
			}
		}()
	}
	wg.Wait()
	wantSamples := clients * batchesPerClient * samplesPerBatch
	deadline := time.Now().Add(10 * time.Second)
	for len(sink.Samples()) < wantSamples && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// After the dust settles the endpoints must agree with the ring.
	resp, err := http.Get(hs.URL + "/spans")
	if err != nil {
		t.Fatal(err)
	}
	dump, err := ptrace.ReadDump(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(dump.Spans) != len(tracer.Snapshot()) {
		t.Errorf("/spans returned %d spans, snapshot holds %d", len(dump.Spans), len(tracer.Snapshot()))
	}
	resp, err = http.Get(hs.URL + "/tracez")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "server.ingest") {
		t.Error("/tracez does not mention server.ingest")
	}
}

// TestReconnectBackoffChildSpans pins the reconnect path: when the
// collector is down for the first dial attempts, the eventually
// delivered batch's client.send span stretches by the waits and each
// wait appears as a client.backoff child.
func TestReconnectBackoffChildSpans(t *testing.T) {
	tracer := ptrace.New(ptrace.Config{Capacity: 64})
	sink := &MemSink{}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeConfigured(ln, sink.Handle, ServerConfig{})

	var mu sync.Mutex
	failures := 2
	// Dials wait until the whole batch is buffered, so the first failure
	// seals all eight samples as the one batch the waits attach to.
	emitted := make(chan struct{})
	dial := func() (io.WriteCloser, error) {
		<-emitted
		mu.Lock()
		defer mu.Unlock()
		if failures > 0 {
			failures--
			return nil, io.ErrClosedPipe
		}
		return net.Dial("tcp", ln.Addr().String())
	}
	c := NewReconnectingClient(dial, ReconnectingClientConfig{
		Rack:         9,
		MaxBatch:     8,
		RetryBackoff: time.Millisecond,
		MaxBackoff:   2 * time.Millisecond,
		Tracer:       tracer,
	})
	for _, s := range testBatch(9, simclock.Epoch.Add(simclock.Millisecond), 8).Samples {
		c.Emit(s)
	}
	close(emitted)
	deadline := time.Now().Add(10 * time.Second)
	for len(sink.Samples()) < 8 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	var backoffs int
	var send *ptrace.Span
	spans := tracer.Snapshot()
	for i := range spans {
		switch spans[i].Stage {
		case ptrace.StageClientBackoff:
			backoffs++
			if spans[i].Parent != ptrace.StageClientSend {
				t.Errorf("backoff parent = %q, want %q", spans[i].Parent, ptrace.StageClientSend)
			}
		case ptrace.StageClientSend:
			send = &spans[i]
		}
	}
	if backoffs != 2 {
		t.Errorf("backoff child spans = %d, want 2 (spans: %+v)", backoffs, spans)
	}
	if send == nil {
		t.Fatal("no client.send span recorded")
	}
	// Without jitter the two reconnect sleeps are 1 ms + 2 ms; they must
	// stretch client.send well past its µs-scale modeled cost.
	if send.Duration() < 3*simclock.Millisecond {
		t.Errorf("client.send duration %v not stretched by the 3 ms of backoff waits", send.Duration())
	}
}
