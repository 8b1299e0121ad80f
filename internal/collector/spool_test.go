package collector

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"mburst/internal/obs"
	"mburst/internal/wire"
)

// scriptConn is an in-memory transport whose writes either land whole in
// a buffer or fail whole — the atomicity wire.Writer.WriteBatch provides
// (one Write per batch), so every buffer decodes cleanly.
type scriptConn struct {
	mu sync.Mutex
	// failAfter is the number of Write calls accepted before the
	// connection dies; -1 never fails.
	failAfter int
	buf       bytes.Buffer
}

func (s *scriptConn) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failAfter == 0 {
		return 0, errors.New("connection reset by peer")
	}
	if s.failAfter > 0 {
		s.failAfter--
	}
	return s.buf.Write(p)
}

func (s *scriptConn) Close() error { return nil }

// decodeConn decodes every batch the connection accepted, in write order.
func decodeConn(t *testing.T, s *scriptConn) []wire.Batch {
	t.Helper()
	s.mu.Lock()
	data := append([]byte(nil), s.buf.Bytes()...)
	s.mu.Unlock()
	r := wire.NewReader(bytes.NewReader(data))
	var out []wire.Batch
	for {
		b, err := r.ReadBatch()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("decoding scripted conn: %v", err)
		}
		out = append(out, wire.Batch{Rack: b.Rack, Epoch: b.Epoch,
			Samples: append([]wire.Sample(nil), b.Samples...)})
	}
}

// scriptDialer hands out scripted connections in sequence once released;
// until then (and after the script is exhausted) dials fail.
type scriptDialer struct {
	mu       sync.Mutex
	released bool
	conns    []*scriptConn
	next     int
}

func (d *scriptDialer) release() {
	d.mu.Lock()
	d.released = true
	d.mu.Unlock()
}

func (d *scriptDialer) dial() (io.WriteCloser, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.released || d.next >= len(d.conns) {
		return nil, errors.New("connection refused")
	}
	c := d.conns[d.next]
	d.next++
	return c, nil
}

// TestReconnectingClientSpoolBoundedDrops: with the collector down, full
// batches are sealed into the spool, the spool caps at SpoolLimit with
// the oldest batches shed, and every shed sample is accounted — in
// DroppedSamples and the SpoolDrops counter.
func TestReconnectingClientSpoolBoundedDrops(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewClientMetrics(reg)
	cfg := ReconnectingClientConfig{
		Rack:        1,
		MaxBatch:    10,
		BufferLimit: 40,
		// Smaller than one sealing round (BufferLimit), so a single seal
		// of a full buffer is guaranteed to overflow the spool.
		SpoolLimit:   15,
		RetryBackoff: time.Millisecond,
		MaxBackoff:   time.Millisecond,
		Sleep:        func(time.Duration) {},
		Metrics:      m,
	}
	c := NewReconnectingClient(func() (io.WriteCloser, error) {
		return nil, errors.New("connection refused")
	}, cfg)
	const n = 200
	for i := 0; i < n; i++ {
		c.Emit(mkSample(i))
	}
	waitFor(t, "spool shedding", func() bool { return m.SpoolDrops.Value() > 0 })
	if got := c.SpooledSamples(); got > uint64(cfg.SpoolLimit) {
		t.Errorf("spool holds %d samples, limit %d", got, cfg.SpoolLimit)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Unreachable collector throughout: everything emitted must be
	// accounted as dropped, nothing delivered, nothing lost track of.
	if c.DeliveredSamples() != 0 {
		t.Errorf("delivered = %d with no collector", c.DeliveredSamples())
	}
	if c.DroppedSamples() != n {
		t.Errorf("dropped = %d, want %d", c.DroppedSamples(), n)
	}
	if c.SpooledSamples() != 0 {
		t.Errorf("spool not drained by close: %d", c.SpooledSamples())
	}
	if spoolDrops := m.SpoolDrops.Value(); spoolDrops > uint64(n) {
		t.Errorf("spool drop counter %v exceeds emitted %d", spoolDrops, n)
	}
}

// TestReconnectingClientSpoolReplayOrderAcrossRedial: batches sealed
// during an outage replay in emit order, and a connection dying
// mid-replay puts the failed batch back at the front — the stream the
// collector decodes across both connections is the emit sequence, each
// sample exactly once.
func TestReconnectingClientSpoolReplayOrderAcrossRedial(t *testing.T) {
	dialer := &scriptDialer{conns: []*scriptConn{
		{failAfter: 2},  // dies mid-replay, after two spooled batches
		{failAfter: -1}, // healthy replacement
	}}
	cfg := ReconnectingClientConfig{
		Rack:         7,
		MaxBatch:     10,
		RetryBackoff: time.Millisecond,
		MaxBackoff:   time.Millisecond,
		Sleep:        func(time.Duration) {},
	}
	c := NewReconnectingClient(dialer.dial, cfg)
	// Outage: five full batches seal into the spool.
	const outage = 50
	for i := 0; i < outage; i++ {
		c.Emit(mkSample(i))
	}
	waitFor(t, "outage sealing", func() bool { return c.SpooledSamples() == outage })
	dialer.release()
	waitFor(t, "replay past the dead conn", func() bool { return c.DeliveredSamples() >= 30 })
	// Fresh traffic after recovery must queue behind the replay.
	const total = 80
	for i := outage; i < total; i++ {
		c.Emit(mkSample(i))
	}
	// Close is what flushes a trailing partial batch: an idle flusher is
	// only woken by a full one, so waiting for the last samples without
	// it waits on how the emits happened to interleave with the replay.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got := c.DeliveredSamples(); got != total {
		t.Fatalf("delivered %d samples, want %d", got, total)
	}
	var got []wire.Sample
	for ci, sc := range dialer.conns {
		for _, b := range decodeConn(t, sc) {
			if b.Rack != 7 {
				t.Fatalf("conn %d: batch rack = %d, want 7", ci, b.Rack)
			}
			got = append(got, b.Samples...)
		}
	}
	if len(got) != total {
		t.Fatalf("collector decoded %d samples, want %d", len(got), total)
	}
	for i, s := range got {
		if s != mkSample(i) {
			t.Fatalf("sample %d out of order or duplicated: %+v", i, s)
		}
	}
	if c.DroppedSamples() != 0 {
		t.Errorf("dropped = %d during a lossless redial", c.DroppedSamples())
	}
	if c.Redials() != 2 {
		t.Errorf("redials = %d, want 2", c.Redials())
	}
}

// TestReconnectingClientEpochBumpSealsSpool: SetEpoch seals buffered
// samples under the old generation before the bump, so after delivery
// every pre-bump sample carries the old epoch, every post-bump sample
// the new one, and no old-epoch batch follows a new-epoch batch.
func TestReconnectingClientEpochBumpSealsSpool(t *testing.T) {
	dialer := &scriptDialer{conns: []*scriptConn{{failAfter: -1}}}
	cfg := ReconnectingClientConfig{
		Rack:         3,
		Epoch:        1,
		MaxBatch:     10,
		RetryBackoff: time.Millisecond,
		MaxBackoff:   time.Millisecond,
		Sleep:        func(time.Duration) {},
	}
	c := NewReconnectingClient(dialer.dial, cfg)
	// Outage traffic under epoch 1, ending on a partial batch.
	const preBump = 25
	for i := 0; i < preBump; i++ {
		c.Emit(mkSample(i))
	}
	// The bump seals the 5-sample remainder under epoch 1 — a sample is
	// delivered with the generation it was sampled in.
	c.SetEpoch(2)
	waitFor(t, "bump sealing", func() bool { return c.SpooledSamples() == preBump })
	const total = 40
	for i := preBump; i < total; i++ {
		c.Emit(mkSample(i))
	}
	dialer.release()
	waitFor(t, "delivery", func() bool { return c.DeliveredSamples() == total })
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	var seen int
	sawNew := false
	for _, b := range decodeConn(t, dialer.conns[0]) {
		wantEpoch := uint32(1)
		if seen >= preBump {
			wantEpoch = 2
		}
		if b.Epoch != wantEpoch {
			t.Fatalf("batch at sample %d has epoch %d, want %d", seen, b.Epoch, wantEpoch)
		}
		if b.Epoch == 1 && sawNew {
			t.Fatalf("old-epoch batch delivered after a new-epoch batch (sample %d)", seen)
		}
		sawNew = sawNew || b.Epoch == 2
		for _, s := range b.Samples {
			if s != mkSample(seen) {
				t.Fatalf("sample %d out of order: %+v", seen, s)
			}
			seen++
		}
	}
	if seen != total {
		t.Fatalf("decoded %d samples, want %d", seen, total)
	}
}

// TestReconnectingClientCloseDeadlineDrainsSpool: an expired Close
// deadline accounts spooled batches as dropped alongside pending ones —
// the spool cannot hold shutdown hostage to an unreachable collector.
func TestReconnectingClientCloseDeadlineDrainsSpool(t *testing.T) {
	cfg := ReconnectingClientConfig{
		Rack:         1,
		MaxBatch:     10,
		RetryBackoff: time.Millisecond,
		MaxBackoff:   time.Millisecond,
		CloseTimeout: 20 * time.Millisecond,
	}
	parked := make(chan struct{})
	defer close(parked)
	backingOff := make(chan struct{})
	var once sync.Once
	cfg.Sleep = func(d time.Duration) {
		if d == cfg.CloseTimeout {
			return
		}
		once.Do(func() { close(backingOff) })
		<-parked
	}
	// The first dial fails only once everything is buffered. The flusher
	// may start dialing with one sample pending or with fifty; held here,
	// its seal always finds the five full batches.
	emitted := make(chan struct{})
	c := NewReconnectingClient(func() (io.WriteCloser, error) {
		<-emitted
		return nil, errors.New("connection refused")
	}, cfg)
	const n = 50
	for i := 0; i < n; i++ {
		c.Emit(mkSample(i))
	}
	close(emitted)
	// The first dial failure seals full batches into the spool, then the
	// flusher parks in backoff — the deadline path must reap both spool
	// and pending.
	<-backingOff
	if c.SpooledSamples() == 0 {
		t.Fatal("no batches sealed into the spool before close")
	}
	if err := c.Close(); err == nil {
		t.Fatal("close returned nil with an unreachable collector and spooled batches")
	}
	if got := c.DeliveredSamples() + c.DroppedSamples(); got != n {
		t.Fatalf("accounting after deadline: delivered+dropped = %d, want %d", got, n)
	}
	if c.SpooledSamples() != 0 {
		t.Errorf("spool holds %d samples after the deadline", c.SpooledSamples())
	}
}
