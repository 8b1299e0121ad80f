package collector

import (
	"fmt"
	"io"
	"sync"
	"time"

	"mburst/internal/ptrace"
	"mburst/internal/rng"
	"mburst/internal/simclock"
	"mburst/internal/wire"
)

// Dialer opens a transport to the collector service. net.Dial wrapped in a
// closure is the production implementation; tests inject failures.
type Dialer func() (io.WriteCloser, error)

// ReconnectingClientConfig tunes a ReconnectingClient.
type ReconnectingClientConfig struct {
	// Rack tags outgoing batches.
	Rack uint32
	// Epoch is the agent's restart generation, stamped on outgoing batches
	// so the collector's EpochGate can discard superseded streams (0 =
	// never restarted).
	Epoch uint32
	// MaxBatch is the flush threshold (default DefaultBatchSize).
	MaxBatch int
	// BufferLimit bounds samples retained while the collector is
	// unreachable (default 1 << 20). Beyond it the oldest samples are
	// dropped — the switch must never block its sampling loop on the
	// network, and DroppedSamples accounts for the loss.
	BufferLimit int
	// SpoolLimit bounds the retransmit spool in samples (default
	// BufferLimit). Batches that fail to send — and samples sealed during
	// an outage — wait in the spool and are replayed in order, each under
	// the epoch it was sealed with, before any newer traffic. Beyond the
	// limit the oldest spooled batches are dropped with exact accounting
	// (DroppedSamples and the SpoolDrops counter).
	SpoolLimit int
	// RetryBackoff is the initial reconnect delay (default 50 ms),
	// doubling per failure up to MaxBackoff (default 5 s).
	RetryBackoff time.Duration
	MaxBackoff   time.Duration
	// Rand, when non-nil, applies full jitter to reconnect delays: each
	// sleep is uniform in [0, backoff) while the doubling cap schedule is
	// unchanged. A rack of agents losing its collector redials spread out
	// instead of in lockstep, and seeded sources keep the pattern
	// reproducible. The source is used only by the flusher goroutine.
	Rand *rng.Source
	// Sleep is injectable for tests (default time.Sleep). It also paces
	// the CloseTimeout deadline.
	Sleep func(time.Duration)
	// CloseTimeout bounds how long Close waits for the final flush. Zero
	// waits indefinitely (the historical behavior). On expiry, samples
	// still pending are accounted as dropped and Close returns an error.
	CloseTimeout time.Duration
	// Metrics, when non-nil, receives transport telemetry (delivered,
	// dropped, redials, backoff state, pending depth).
	Metrics *ClientMetrics
	// Tracer, when non-nil, records client-side spans for every delivered
	// batch; reconnect waits taken while the batch was pending appear as
	// client.backoff children of its client.send span.
	Tracer *ptrace.Tracer
}

func (c *ReconnectingClientConfig) applyDefaults() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultBatchSize
	}
	if c.BufferLimit <= 0 {
		c.BufferLimit = 1 << 20
	}
	if c.SpoolLimit <= 0 {
		c.SpoolLimit = c.BufferLimit
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 5 * time.Second
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
}

// ReconnectingClient is a collection agent's transport: it batches samples
// like Client, but survives collector restarts by buffering during
// outages and redialing with exponential backoff. Unlike Client it is
// safe for concurrent Emit/Close (the flusher runs on its own goroutine).
type ReconnectingClient struct {
	cfg  ReconnectingClientConfig
	dial Dialer

	mu      sync.Mutex
	pending []wire.Sample
	// spool holds sealed batches awaiting retransmission, oldest first.
	// Each remembers the epoch it was sealed under, so an epoch bump never
	// re-stamps traffic sampled in an earlier generation. spooled is the
	// total sample count across the spool.
	spool   []spoolBatch
	spooled int
	closed  bool
	wake    chan struct{}
	done    chan struct{}

	dropped   uint64
	delivered uint64
	redials   uint64

	// m holds nil-safe instruments; the zero value disables telemetry.
	m ClientMetrics
}

// NewReconnectingClient starts the background flusher. It panics on a nil
// dialer (a static misconfiguration).
func NewReconnectingClient(dial Dialer, cfg ReconnectingClientConfig) *ReconnectingClient {
	if dial == nil {
		panic("collector: nil dialer")
	}
	cfg.applyDefaults()
	c := &ReconnectingClient{
		cfg:  cfg,
		dial: dial,
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	if cfg.Metrics != nil {
		c.m = *cfg.Metrics
	}
	go c.flushLoop()
	return c
}

// Emit implements Emitter. It never blocks on the network: samples are
// buffered and the flusher notified; when the buffer limit is exceeded the
// oldest samples are discarded.
func (c *ReconnectingClient) Emit(s wire.Sample) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.pending = append(c.pending, s)
	if over := len(c.pending) - c.cfg.BufferLimit; over > 0 {
		c.pending = c.pending[over:]
		c.dropped += uint64(over)
		c.m.Dropped.Add(uint64(over))
	}
	c.m.Pending.Set(float64(len(c.pending)))
	notify := len(c.pending) >= c.cfg.MaxBatch
	c.mu.Unlock()
	if notify {
		select {
		case c.wake <- struct{}{}:
		default:
		}
	}
}

// spoolBatch is one sealed, undelivered batch in the retransmit spool.
type spoolBatch struct {
	epoch   uint32
	samples []wire.Sample
}

// SetEpoch advances the agent's restart generation for subsequently
// sealed batches. Samples already buffered are sealed into the spool
// first, under the old epoch — a sample is always delivered with the
// generation it was sampled in, even across a soft restart.
func (c *ReconnectingClient) SetEpoch(epoch uint32) {
	c.mu.Lock()
	c.sealPendingLocked(true)
	c.cfg.Epoch = epoch
	c.mu.Unlock()
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// sealPendingLocked moves buffered samples into the spool as sealed
// batches under the current epoch: full MaxBatch chunks always, plus the
// final partial chunk when all is set (epoch bump — nothing may remain
// behind under the old generation). Caller holds c.mu.
func (c *ReconnectingClient) sealPendingLocked(all bool) {
	for len(c.pending) >= c.cfg.MaxBatch || (all && len(c.pending) > 0) {
		n := len(c.pending)
		if n > c.cfg.MaxBatch {
			n = c.cfg.MaxBatch
		}
		batch := make([]wire.Sample, n)
		copy(batch, c.pending[:n])
		c.pending = c.pending[:copy(c.pending, c.pending[n:])]
		c.spoolPushLocked(spoolBatch{epoch: c.cfg.Epoch, samples: batch})
	}
	c.m.Pending.Set(float64(len(c.pending)))
}

//lint:hotpath spool enqueue on the flush path; amortized slice growth only
func (c *ReconnectingClient) spoolPushLocked(sb spoolBatch) {
	c.spool = append(c.spool, sb)
	c.spooled += len(sb.samples)
	// Bounded spool: shed the oldest sealed batches first, with exact
	// accounting — backpressure must never block the sampling loop.
	for c.spooled > c.cfg.SpoolLimit && len(c.spool) > 0 {
		n := uint64(len(c.spool[0].samples))
		c.spool[0].samples = nil
		c.spool = c.spool[1:]
		c.spooled -= int(n)
		c.dropped += n
		c.m.Dropped.Add(n)
		c.m.SpoolDrops.Add(n)
	}
	c.m.Spooled.Set(float64(c.spooled))
}

// takeSpool pops the oldest spooled batch for retransmission.
func (c *ReconnectingClient) takeSpool() (spoolBatch, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.spool) == 0 {
		return spoolBatch{}, false
	}
	sb := c.spool[0]
	c.spool[0].samples = nil
	c.spool = c.spool[1:]
	c.spooled -= len(sb.samples)
	c.m.Spooled.Set(float64(c.spooled))
	return sb, true
}

// unshiftSpool returns a batch whose write failed to the spool's front,
// keeping replay order intact across a redial mid-replay.
func (c *ReconnectingClient) unshiftSpool(sb spoolBatch) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.spool = append([]spoolBatch{sb}, c.spool...)
	c.spooled += len(sb.samples)
	c.m.Spooled.Set(float64(c.spooled))
}

// dropAllLocked accounts everything buffered and spooled as dropped —
// the shutdown-with-unreachable-collector path. Caller holds c.mu.
func (c *ReconnectingClient) dropAllLocked() uint64 {
	n := uint64(len(c.pending)) + uint64(c.spooled)
	c.dropped += n
	c.pending = nil
	c.spool = nil
	c.spooled = 0
	return n
}

// SpooledSamples returns how many samples wait in the retransmit spool.
func (c *ReconnectingClient) SpooledSamples() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return uint64(c.spooled)
}

// DroppedSamples returns how many samples were discarded during outages.
func (c *ReconnectingClient) DroppedSamples() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// DeliveredSamples returns how many samples were written to a transport.
func (c *ReconnectingClient) DeliveredSamples() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.delivered
}

// Redials returns how many times the client re-established the transport.
func (c *ReconnectingClient) Redials() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.redials
}

// Close flushes best-effort and stops the flusher. With a CloseTimeout
// configured, the final flush is bounded: if the flusher has not drained
// within the deadline (collector down, backoff in progress), Close
// accounts the undelivered samples as dropped and returns an error rather
// than hanging agent shutdown on an unreachable collector.
func (c *ReconnectingClient) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	timeout := c.cfg.CloseTimeout
	c.mu.Unlock()
	select {
	case c.wake <- struct{}{}:
	default:
	}
	if timeout <= 0 {
		<-c.done
		return nil
	}
	expired := make(chan struct{})
	go func() {
		c.cfg.Sleep(timeout)
		close(expired)
	}()
	select {
	case <-c.done:
		return nil
	case <-expired:
	}
	// Deadline hit: drop what is still pending or spooled so accounting
	// stays exact. A batch already taken by the flusher is in neither; it
	// either delivers (counted delivered) or is re-spooled and dropped by
	// the flusher's closed-with-unreachable-collector path — never both.
	c.mu.Lock()
	n := c.dropAllLocked()
	c.mu.Unlock()
	c.m.Dropped.Add(n)
	c.m.Pending.Set(0)
	c.m.Spooled.Set(0)
	return fmt.Errorf("collector: close timed out after %v with %d samples undelivered", timeout, n)
}

// takeBatch removes up to MaxBatch pending samples, sealing them under
// the current epoch (read under the lock — SetEpoch may race).
func (c *ReconnectingClient) takeBatch() ([]wire.Sample, uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.pending)
	if n == 0 {
		return nil, c.cfg.Epoch
	}
	if n > c.cfg.MaxBatch {
		n = c.cfg.MaxBatch
	}
	out := make([]wire.Sample, n)
	copy(out, c.pending[:n])
	c.pending = c.pending[:copy(c.pending, c.pending[n:])]
	c.m.Pending.Set(float64(len(c.pending)))
	return out, c.cfg.Epoch
}

func (c *ReconnectingClient) flushLoop() {
	defer close(c.done)
	var (
		conn    io.WriteCloser
		cw      countingWriter
		w       *wire.Writer
		backoff = c.cfg.RetryBackoff
		// waits accumulates reconnect sleeps taken since the last delivery,
		// attributed to the next delivered batch as client.backoff spans.
		waits []simclock.Duration
	)
	closeConn := func() {
		if conn != nil {
			conn.Close()
			conn, w = nil, nil
		}
	}
	defer closeConn()

	for {
		c.mu.Lock()
		empty := len(c.pending) == 0 && len(c.spool) == 0
		closed := c.closed
		c.mu.Unlock()
		if empty {
			if closed {
				return
			}
			<-c.wake
			continue
		}
		if conn == nil {
			nc, err := c.dial()
			if err != nil {
				if closed {
					// Shutting down with an unreachable collector:
					// account the remainder as dropped and exit.
					c.mu.Lock()
					n := c.dropAllLocked()
					c.mu.Unlock()
					c.m.Dropped.Add(n)
					c.m.Pending.Set(0)
					c.m.Spooled.Set(0)
					return
				}
				// The collector is down: seal full batches into the bounded
				// spool (under the current epoch) so outage loss is decided by
				// the spool's exact shedding, then back off.
				c.mu.Lock()
				c.sealPendingLocked(false)
				c.mu.Unlock()
				// Full jitter: sleep uniform in [0, backoff) while the
				// doubling schedule caps unchanged; the gauge reports the
				// sleep actually taken.
				sleep := backoff
				if c.cfg.Rand != nil {
					sleep = time.Duration(c.cfg.Rand.Float64() * float64(backoff))
				}
				c.m.Backoff.Set(sleep.Seconds())
				c.cfg.Sleep(sleep)
				waits = append(waits, simclock.FromStd(sleep))
				backoff *= 2
				if backoff > c.cfg.MaxBackoff {
					backoff = c.cfg.MaxBackoff
				}
				continue
			}
			conn = nc
			cw = countingWriter{w: nc}
			// A fresh stream and a fresh codec per dial: a reconnect never
			// leaves the collector chained to stale delta state.
			w = wire.NewWriter(&cw)
			c.mu.Lock()
			c.redials++
			c.mu.Unlock()
			c.m.Redials.Inc()
			c.m.Backoff.Set(0)
			backoff = c.cfg.RetryBackoff
		}
		// Replay the spool first: sealed batches precede anything newer,
		// each under the epoch it was sealed with.
		wb := wire.Batch{Rack: c.cfg.Rack}
		var fromSpool bool
		var spooled spoolBatch
		if sb, ok := c.takeSpool(); ok {
			fromSpool, spooled = true, sb
			wb.Epoch, wb.Samples = sb.epoch, sb.samples
		} else {
			batch, epoch := c.takeBatch()
			if batch == nil {
				continue
			}
			wb.Epoch, wb.Samples = epoch, batch
		}
		before := cw.n
		err := w.WriteBatch(&wb)
		c.m.Bytes.Add(cw.n - before)
		if err != nil {
			c.m.FlushErrors.Inc()
			closeConn()
			if fromSpool {
				// Mid-replay redial: back to the front, order intact.
				c.unshiftSpool(spooled)
			} else {
				c.mu.Lock()
				c.spoolPushLocked(spoolBatch{epoch: wb.Epoch, samples: wb.Samples})
				c.mu.Unlock()
			}
			continue
		}
		recordSendSpans(c.cfg.Tracer, &wb, waits)
		waits = nil
		c.mu.Lock()
		c.delivered += uint64(len(wb.Samples))
		c.mu.Unlock()
		c.m.Batches.Inc()
		c.m.Delivered.Add(uint64(len(wb.Samples)))
	}
}

// String summarizes delivery accounting for diagnostics.
func (c *ReconnectingClient) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fmt.Sprintf("reconnecting client: delivered=%d dropped=%d redials=%d pending=%d spooled=%d",
		c.delivered, c.dropped, c.redials, len(c.pending), c.spooled)
}
