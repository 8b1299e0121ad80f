package collector

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"mburst/internal/obs"
	"mburst/internal/rng"
	"mburst/internal/wire"
)

// tcpDialer dials a fixed address.
func tcpDialer(addr string) Dialer {
	return func() (io.WriteCloser, error) {
		return net.Dial("tcp", addr)
	}
}

func fastConfig(rack uint32) ReconnectingClientConfig {
	return ReconnectingClientConfig{
		Rack:         rack,
		MaxBatch:     8,
		RetryBackoff: time.Millisecond,
		MaxBackoff:   5 * time.Millisecond,
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestReconnectingClientHappyPath(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sink := &MemSink{}
	srv := ServeConfigured(ln, sink.Handle, ServerConfig{})
	defer srv.Close()

	c := NewReconnectingClient(tcpDialer(srv.Addr().String()), fastConfig(3))
	const n = 100
	for i := 0; i < n; i++ {
		c.Emit(mkSample(i))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "delivery", func() bool { return len(sink.Samples()) == n })
	if c.DroppedSamples() != 0 {
		t.Errorf("dropped = %d", c.DroppedSamples())
	}
	if c.DeliveredSamples() != n {
		t.Errorf("delivered = %d", c.DeliveredSamples())
	}
	got := sink.Samples()
	for i := range got {
		if got[i] != mkSample(i) {
			t.Fatalf("sample %d corrupted or reordered", i)
		}
	}
}

func TestReconnectingClientSurvivesRestart(t *testing.T) {
	// Start a collector, feed samples, kill it mid-stream, restart on the
	// same port, and verify delivery resumes with no corruption.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	sink := &MemSink{}
	srv := ServeConfigured(ln, sink.Handle, ServerConfig{})

	c := NewReconnectingClient(tcpDialer(addr), fastConfig(1))
	defer c.Close()
	for i := 0; i < 50; i++ {
		c.Emit(mkSample(i))
	}
	waitFor(t, "first delivery", func() bool { return len(sink.Samples()) >= 8 })
	srv.Close() // collector crashes

	// Keep emitting during the outage.
	for i := 50; i < 200; i++ {
		c.Emit(mkSample(i))
	}

	// Collector comes back on the same address.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := ServeConfigured(ln2, sink.Handle, ServerConfig{})
	defer srv2.Close()

	// Close flushes the trailing partial batch (an idle flusher is only
	// woken by a full one) and returns once the flusher has drained into
	// the restarted collector.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// A batch written into the dying socket before the RST arrives is
	// lost in TCP limbo (neither delivered nor locally dropped) — that is
	// inherent to the transport. Recovery is proven by the *last* emitted
	// sample arriving through the restarted collector.
	waitFor(t, "recovery", func() bool {
		for _, s := range sink.Samples() {
			if s == mkSample(199) {
				return true
			}
		}
		return false
	})
	if c.Redials() < 2 {
		t.Errorf("redials = %d, want >= 2", c.Redials())
	}
	// Every delivered sample must be intact (values encode their index).
	for _, s := range sink.Samples() {
		want := mkSample(int(s.Value / 1000))
		if s != want {
			t.Fatalf("corrupted sample after restart: %+v", s)
		}
	}
}

func TestReconnectingClientBuffersBounded(t *testing.T) {
	// Unreachable collector: the buffer must cap and account drops.
	dial := func() (io.WriteCloser, error) {
		return nil, errors.New("connection refused")
	}
	cfg := fastConfig(1)
	cfg.BufferLimit = 100
	cfg.Sleep = func(time.Duration) {} // spin fast in test
	c := NewReconnectingClient(dial, cfg)
	for i := 0; i < 500; i++ {
		c.Emit(mkSample(i))
	}
	waitFor(t, "drop accounting", func() bool { return c.DroppedSamples() > 0 })
	c.mu.Lock()
	pending := len(c.pending)
	c.mu.Unlock()
	if pending > 100 {
		t.Errorf("pending = %d exceeds limit", pending)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// After close with no collector, everything is accounted: emitted =
	// delivered + dropped (within the race window of the final batch).
	total := c.DeliveredSamples() + c.DroppedSamples()
	if total == 0 {
		t.Error("nothing accounted")
	}
}

func TestReconnectingClientEmitAfterCloseIsNoop(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sink := &MemSink{}
	srv := ServeConfigured(ln, sink.Handle, ServerConfig{})
	defer srv.Close()
	c := NewReconnectingClient(tcpDialer(srv.Addr().String()), fastConfig(1))
	c.Emit(mkSample(0))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c.Emit(mkSample(1)) // must not panic or deliver
	if err := c.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
	time.Sleep(20 * time.Millisecond)
	if got := len(sink.Samples()); got > 1 {
		t.Errorf("post-close sample delivered: %d", got)
	}
}

func TestReconnectingClientConcurrentEmit(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sink := &MemSink{}
	srv := ServeConfigured(ln, sink.Handle, ServerConfig{})
	defer srv.Close()
	c := NewReconnectingClient(tcpDialer(srv.Addr().String()), fastConfig(1))
	var wg sync.WaitGroup
	const goroutines, per = 8, 250
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Emit(wire.Sample{Time: 1, Value: uint64(g*per + i)})
			}
		}(g)
	}
	wg.Wait()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "all delivered", func() bool {
		return len(sink.Samples()) == goroutines*per
	})
}

func TestReconnectingClientBackoffFullJitter(t *testing.T) {
	// With an injected RNG, reconnect sleeps are uniform in [0, backoff)
	// while the doubling cap schedule is unchanged, the pattern is
	// reproducible per seed, and the backoff gauge reports the sleep
	// actually taken.
	observe := func(seed uint64) ([]time.Duration, []float64) {
		var mu sync.Mutex
		var sleeps []time.Duration
		var gauges []float64
		reg := obs.NewRegistry()
		m := NewClientMetrics(reg)
		done := make(chan struct{})
		cfg := ReconnectingClientConfig{
			Rack:         1,
			MaxBatch:     1, // one sample is a full batch: the Emit below wakes the flusher
			RetryBackoff: time.Millisecond,
			MaxBackoff:   8 * time.Millisecond,
			Rand:         rng.New(seed).Split("backoff"),
			Metrics:      m,
			Sleep: func(d time.Duration) {
				mu.Lock()
				sleeps = append(sleeps, d)
				gauges = append(gauges, m.Backoff.Value())
				n := len(sleeps)
				mu.Unlock()
				if n == 8 {
					close(done)
				}
			},
		}
		c := NewReconnectingClient(func() (io.WriteCloser, error) {
			return nil, errors.New("connection refused")
		}, cfg)
		c.Emit(mkSample(0))
		<-done
		c.Close()
		mu.Lock()
		defer mu.Unlock()
		return append([]time.Duration(nil), sleeps[:8]...), append([]float64(nil), gauges[:8]...)
	}

	a, gauges := observe(5)
	b, _ := observe(5)
	other, _ := observe(6)
	sched := time.Millisecond // the un-jittered doubling schedule
	varied := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at redial %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] < 0 || a[i] >= 8*time.Millisecond {
			t.Errorf("sleep %d = %v outside [0, MaxBackoff)", i, a[i])
		}
		if a[i] > sched {
			t.Errorf("sleep %d = %v exceeds scheduled cap %v", i, a[i], sched)
		}
		if gauges[i] != a[i].Seconds() {
			t.Errorf("gauge at redial %d = %v, want %v", i, gauges[i], a[i].Seconds())
		}
		if a[i] != other[i] {
			varied = true
		}
		if sched < 8*time.Millisecond {
			sched *= 2
		}
	}
	if !varied {
		t.Error("different seeds produced identical jitter sequences")
	}
}

func TestReconnectingClientCloseDeadlineDelivers(t *testing.T) {
	// Collector up: a bounded Close still delivers everything.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sink := &MemSink{}
	srv := ServeConfigured(ln, sink.Handle, ServerConfig{})
	defer srv.Close()
	cfg := fastConfig(1)
	cfg.CloseTimeout = 5 * time.Second
	c := NewReconnectingClient(tcpDialer(srv.Addr().String()), cfg)
	const n = 100
	for i := 0; i < n; i++ {
		c.Emit(mkSample(i))
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close with reachable collector: %v", err)
	}
	waitFor(t, "delivery", func() bool { return len(sink.Samples()) == n })
	if c.DroppedSamples() != 0 {
		t.Errorf("dropped = %d, want 0", c.DroppedSamples())
	}
}

func TestReconnectingClientCloseDeadlineExpires(t *testing.T) {
	// Collector down: Close must return within the deadline with every
	// undelivered sample accounted as dropped — not hang.
	cfg := fastConfig(1)
	cfg.CloseTimeout = 20 * time.Millisecond
	parked := make(chan struct{})
	defer close(parked)
	backingOff := make(chan struct{})
	var once sync.Once
	cfg.Sleep = func(d time.Duration) {
		// Injected sleep: the deadline fires immediately, backoff waits
		// park until test teardown (the collector never comes back).
		if d == cfg.CloseTimeout {
			return
		}
		once.Do(func() { close(backingOff) })
		<-parked
	}
	c := NewReconnectingClient(func() (io.WriteCloser, error) {
		return nil, errors.New("connection refused")
	}, cfg)
	const n = 50
	for i := 0; i < n; i++ {
		c.Emit(mkSample(i))
	}
	// Close only once the flusher is parked in a backoff sleep: a fast
	// dial failure after Close would otherwise let the flusher drain and
	// exit cleanly within the deadline, and Close would rightly return
	// nil. The hung-flusher case is the one the deadline exists for.
	<-backingOff
	err := c.Close()
	if err == nil {
		t.Fatal("close returned nil with an unreachable collector and expired deadline")
	}
	if got := c.DeliveredSamples() + c.DroppedSamples(); got != n {
		t.Fatalf("accounting after deadline: delivered+dropped = %d, want %d", got, n)
	}
	if c.DroppedSamples() == 0 {
		t.Error("no samples accounted as dropped")
	}
}

func TestNewReconnectingClientNilDialerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil dialer did not panic")
		}
	}()
	NewReconnectingClient(nil, ReconnectingClientConfig{})
}
