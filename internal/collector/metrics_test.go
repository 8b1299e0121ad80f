package collector

import (
	"errors"
	"io"
	"math"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"mburst/internal/eventq"
	"mburst/internal/obs"
	"mburst/internal/rng"
	"mburst/internal/simclock"
	"mburst/internal/wire"
)

func TestMissedForOverrunClampsWireField(t *testing.T) {
	interval := simclock.Duration(1) // 1 ns — the worst case for overruns
	cases := []struct {
		overrun    simclock.Duration
		wantMissed uint64
		wantWire   uint32
	}{
		{0, 0, 0},
		{5, 5, 5},
		{simclock.Duration(math.MaxUint32), math.MaxUint32, math.MaxUint32},
		// A ~10 s stall against a 1 ns interval overflows uint32: the
		// wire field must saturate, the poller total must not.
		{10 * simclock.Second, 10_000_000_000, math.MaxUint32},
	}
	for _, tc := range cases {
		k, missed, wireMissed := missedForOverrun(tc.overrun, interval)
		if missed != tc.wantMissed {
			t.Errorf("overrun %v: missed = %d, want %d", tc.overrun, missed, tc.wantMissed)
		}
		if wireMissed != tc.wantWire {
			t.Errorf("overrun %v: wire missed = %d, want %d", tc.overrun, wireMissed, tc.wantWire)
		}
		if k != int64(tc.wantMissed)+1 {
			t.Errorf("overrun %v: k = %d, want %d", tc.overrun, k, tc.wantMissed+1)
		}
	}
	// Sanity at a realistic interval: a 60 µs overrun at 25 µs misses 2.
	if _, missed, wireMissed := missedForOverrun(60*simclock.Microsecond, 25*simclock.Microsecond); missed != 2 || wireMissed != 2 {
		t.Errorf("60µs/25µs: missed = %d wire = %d, want 2", missed, wireMissed)
	}
}

func TestPollerMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	pm := NewPollerMetrics(reg)
	sw := testSwitch()
	p, err := NewPoller(PollerConfig{
		Interval:      simclock.Micros(25),
		Counters:      []CounterSpec{byteSpec(0)},
		DedicatedCore: true,
		Metrics:       pm,
	}, sw, rng.New(1), EmitterFunc(func(wire.Sample) {}))
	if err != nil {
		t.Fatal(err)
	}
	sched := eventq.NewScheduler()
	p.Install(sched)
	sched.RunUntil(simclock.Epoch.Add(simclock.Seconds(1)))
	p.Stop() // flushes the batched telemetry

	if got := pm.Polls.Value(); got != p.Samples() {
		t.Errorf("polls counter = %d, poller says %d", got, p.Samples())
	}
	if got := pm.Missed.Value(); got != p.Missed() {
		t.Errorf("missed counter = %d, poller says %d", got, p.Missed())
	}
	// Cost is observed when a poll starts, completion counts when it
	// finishes — a poll in flight at the deadline leaves them one apart.
	if d := pm.PollCost.Count() - p.Samples(); d > 1 {
		t.Errorf("poll cost observations = %d, polls = %d", pm.PollCost.Count(), p.Samples())
	}
	if pm.BusyNanos.Value() == 0 {
		t.Error("busy time not accumulated")
	}
	busy := pm.CPUBusy.Value()
	if math.Abs(busy-p.CPUBusyFrac()) > 0.05 {
		t.Errorf("cpu busy gauge %.3f far from poller %.3f", busy, p.CPUBusyFrac())
	}
}

func TestPollerMetricsDisabledMatchesBaseline(t *testing.T) {
	// The nil-metrics poller must behave identically (same samples, same
	// timestamps) — instrumentation must not perturb the model.
	run := func(m *PollerMetrics) []wire.Sample {
		var got []wire.Sample
		sw := testSwitch()
		p, err := NewPoller(PollerConfig{
			Interval:      simclock.Micros(25),
			Counters:      []CounterSpec{byteSpec(0)},
			DedicatedCore: true,
			Metrics:       m,
		}, sw, rng.New(9), EmitterFunc(func(s wire.Sample) { got = append(got, s) }))
		if err != nil {
			t.Fatal(err)
		}
		sched := eventq.NewScheduler()
		p.Install(sched)
		sched.RunUntil(simclock.Epoch.Add(simclock.Millis(20)))
		return got
	}
	plain := run(nil)
	instr := run(NewPollerMetrics(obs.NewRegistry()))
	if len(plain) != len(instr) {
		t.Fatalf("sample counts differ: %d vs %d", len(plain), len(instr))
	}
	for i := range plain {
		if plain[i] != instr[i] {
			t.Fatalf("sample %d differs under instrumentation", i)
		}
	}
}

func TestReconnectingClientMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	cm := NewClientMetrics(reg)
	sink := &MemSink{}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeConfigured(ln, sink.Handle, ServerConfig{})
	defer srv.Close()

	c := NewReconnectingClient(func() (io.WriteCloser, error) {
		return net.Dial("tcp", ln.Addr().String())
	}, ReconnectingClientConfig{Rack: 3, MaxBatch: 8, Metrics: cm})
	const n = 40
	for i := 0; i < n; i++ {
		c.Emit(wire.Sample{Time: simclock.Time(i)})
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got := cm.Delivered.Value(); got != n {
		t.Errorf("delivered = %d, want %d", got, n)
	}
	if got := cm.Redials.Value(); got != 1 {
		t.Errorf("redials = %d, want 1", got)
	}
	if cm.Bytes.Value() == 0 || cm.Batches.Value() == 0 {
		t.Errorf("bytes = %d batches = %d, want > 0", cm.Bytes.Value(), cm.Batches.Value())
	}
	if got := cm.Pending.Value(); got != 0 {
		t.Errorf("pending gauge = %v after close", got)
	}
	if got := cm.Dropped.Value(); got != 0 {
		t.Errorf("dropped = %d", got)
	}
}

func TestReconnectingClientBackoffMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	cm := NewClientMetrics(reg)
	fail := errFailDial{}
	// Every backoff sleep hands its duration to the test and waits for it
	// to be taken (or for the release at shutdown), so the test observes
	// the flusher's state between dials instead of guessing at it with a
	// wall clock.
	backoffs := make(chan time.Duration)
	release := make(chan struct{})
	c := NewReconnectingClient(fail.dial, ReconnectingClientConfig{
		MaxBatch:     1, // one sample is a full batch: the Emit below wakes the flusher
		RetryBackoff: 10 * time.Millisecond,
		MaxBackoff:   40 * time.Millisecond,
		Metrics:      cm,
		Sleep: func(d time.Duration) {
			select {
			case backoffs <- d:
			case <-release:
			}
		},
	})
	c.Emit(wire.Sample{})
	for i, want := range []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond, 40 * time.Millisecond} {
		if got := <-backoffs; got != want {
			t.Errorf("backoff %d slept %v, want %v", i, got, want)
		}
		// The flusher sets the gauge before it sleeps and is asleep (or
		// re-dialing) until the next receive.
		if fail.count.Load() < int64(i+1) {
			t.Errorf("backoff %d after %d failed dials", i, fail.count.Load())
		}
	}
	if cm.Backoff.Value() == 0 {
		t.Error("backoff gauge not set while the collector is unreachable")
	}
	close(release)
	c.Close()
	if cm.Dropped.Value() != 1 {
		t.Errorf("dropped = %d, want 1 (shutdown with unreachable collector)", cm.Dropped.Value())
	}
}

type errFailDial struct {
	count atomic.Int64
}

func (d *errFailDial) dial() (io.WriteCloser, error) {
	d.count.Add(1)
	return nil, errors.New("collector unreachable")
}
