// Package collector implements the high-resolution counter-collection
// framework of §4.1: a polling loop that reads ASIC counters at 10s to
// 100s of microseconds, batches samples, and ships them to a distributed
// collector service over TCP.
//
// The poller models the physics that limit real collection:
//
//   - Each counter kind has an ASIC access latency (asic.AccessCost);
//     registers are fast, the shared-buffer peak register is slow, which
//     is why the paper polls byte counters at 25 µs but the buffer at
//     50 µs.
//   - Polling several instances together grows cost sublinearly
//     ("Multiple counters can be polled together with a sublinear
//     increase in sampling rate", §4.1): additional instances of an
//     already-read kind cost half their access latency.
//   - "Polling intervals are best-effort as kernel interrupts and
//     competing resource requests can cause the sampler to miss
//     intervals": each poll pays a small uniform jitter and, with some
//     probability, an exponential interrupt delay. When the loop overruns
//     an interval boundary, that interval is missed — but the eventual
//     sample still carries the correct timestamp and cumulative value, so
//     throughput remains computable (Table 1 caption).
//
// With the default model a single byte counter misses ~100% of 1 µs
// intervals, ~10% of 10 µs intervals and ~1% of 25 µs intervals,
// reproducing Table 1.
package collector

import (
	"fmt"
	"math"
	"sync/atomic"

	"mburst/internal/asic"
	"mburst/internal/eventq"
	"mburst/internal/obs"
	"mburst/internal/rng"
	"mburst/internal/simclock"
	"mburst/internal/wire"
)

// CounterSpec selects one counter instance to poll.
type CounterSpec struct {
	// Port is the switch port (ignored for KindBufferPeak).
	Port int
	// Dir selects RX or TX (ignored for KindDrops and KindBufferPeak).
	Dir asic.Direction
	// Kind is the counter family.
	Kind asic.CounterKind
}

// String formats the spec for diagnostics.
func (c CounterSpec) String() string {
	return fmt.Sprintf("%s/port%d/%s", c.Kind, c.Port, c.Dir)
}

// PollerConfig configures one measurement campaign's polling loop. The
// paper runs one campaign per set of experimental results, single-counter
// campaigns where the highest resolution is needed (§4.1).
type PollerConfig struct {
	// Interval is the target sampling interval.
	Interval simclock.Duration
	// Counters lists the instances read on every poll.
	Counters []CounterSpec
	// DedicatedCore pins the loop to its own core. Without it the paper
	// trades precision for ≤20% utilization; we model that as 4× the
	// interrupt probability.
	DedicatedCore bool

	// Metrics, when non-nil, receives per-poll telemetry (polls, missed
	// intervals, poll-cost histogram, CPU-busy). Leaving it nil costs the
	// loop nothing beyond a few predicted branches.
	Metrics *PollerMetrics

	// Fault, when non-nil, injects measurement-plane faults (read-latency
	// spikes, CPU stalls, stuck counter reads) into the loop. Offsets
	// passed to it are relative to Install time. fault.PollerInjector is
	// the standard implementation.
	Fault PollFault
}

// PollFault is the poller's fault-injection hook. Implementations must be
// deterministic functions of the offset (no wall clock, no unseeded
// randomness) or campaign reproducibility breaks.
type PollFault interface {
	// PollDelay returns extra poll cost for a poll starting at offset off
	// from Install, given the loop's fault-free base cost.
	PollDelay(off, base simclock.Duration) simclock.Duration
	// ReadStuck reports whether counter reads at offset off return the
	// previously latched values instead of reaching the ASIC.
	ReadStuck(off simclock.Duration) bool
}

// The interference model of the paper's one poller platform (§4.1),
// calibrated so a single byte counter on a dedicated core misses Table 1's
// intervals: ~100% at 1 µs, ~10% at 10 µs, ~1% at 25 µs.
const (
	// loopOverhead is the fixed per-poll software cost.
	loopOverhead = simclock.Microsecond
	// jitterFrac is the uniform relative jitter on the base cost (±10%).
	jitterFrac = 0.1
	// pInterrupt is the per-poll probability of a kernel interrupt with a
	// dedicated core.
	pInterrupt = 0.145
	// interruptMean is the mean of the exponential interrupt delay.
	interruptMean = 8 * simclock.Microsecond
)

// Validate checks the configuration against the switch.
func (c *PollerConfig) Validate(sw *asic.Switch) error {
	if c.Interval <= 0 {
		return fmt.Errorf("collector: non-positive interval %v", c.Interval)
	}
	if len(c.Counters) == 0 {
		return fmt.Errorf("collector: no counters to poll")
	}
	for _, spec := range c.Counters {
		if spec.Kind < 0 || spec.Kind > asic.KindECNMarks {
			return fmt.Errorf("collector: bad counter kind in %v", spec)
		}
		if spec.Port < 0 || spec.Port >= sw.NumPorts() {
			return fmt.Errorf("collector: port out of range in %v", spec)
		}
	}
	return nil
}

// Emitter receives completed samples. Client implements Emitter for
// network shipping; tests and in-process analyses use function adapters.
type Emitter interface {
	Emit(s wire.Sample)
}

// EmitterFunc adapts a function to Emitter.
type EmitterFunc func(s wire.Sample)

// Emit implements Emitter.
func (f EmitterFunc) Emit(s wire.Sample) { f(s) }

// Poller drives the sampling loop on a simulation scheduler.
type Poller struct {
	cfg  PollerConfig
	sw   *asic.Switch
	src  *rng.Source
	emit Emitter

	baseCost simclock.Duration

	sched   *eventq.Scheduler
	stopped bool

	// One poll is in flight at a time, so its due instant lives here and
	// the two handlers are bound once (a method value allocates each time
	// it is taken) rather than closed over due once per poll.
	due     simclock.Time
	onStart eventq.Handler
	onDone  eventq.Handler

	// m holds nil-safe instruments; the zero value disables telemetry.
	// The loop is single-goroutine, so per-poll telemetry accumulates in
	// the plain tl* fields (and tlCost) and folds into m's shared atomics
	// every telemetryFlushEvery polls and on Stop — per-poll atomic RMWs
	// would be a measurable fraction of the ~100 ns poll path.
	m        PollerMetrics
	tlCost   *obs.LocalHistogram
	tlPolls  uint64
	tlBusy   uint64
	tlMissed uint64

	// samples/missed/busy are written by the sampling loop and read
	// concurrently by telemetry scrapers and campaign supervisors
	// (Samples/Missed/MissRate/CPUBusyFrac), so they are atomics.
	pendingMissed uint32
	samples       atomic.Uint64
	missed        atomic.Uint64
	busy          atomic.Int64 // simclock.Duration nanoseconds
	started       simclock.Time

	// lastRead latches the most recent value read for each counter spec so
	// a stuck-read fault can replay it. A stuck read never reaches the
	// ASIC: clear-on-read registers (buffer peak) keep accumulating, which
	// is the physically correct stale-latch behavior.
	lastRead []wire.Sample
}

// NewPoller validates the config and builds a poller. It switches on the
// switch's packet and size-bin counters for the directions the config
// polls (asic.Switch.CountPackets), so a poller that reads them must be
// built before the switch carries traffic; afterwards it returns that
// error.
func NewPoller(cfg PollerConfig, sw *asic.Switch, src *rng.Source, emit Emitter) (*Poller, error) {
	if err := cfg.Validate(sw); err != nil {
		return nil, err
	}
	if src == nil || emit == nil {
		return nil, fmt.Errorf("collector: nil source or emitter")
	}
	for _, spec := range cfg.Counters {
		if spec.Kind == asic.KindPackets || spec.Kind == asic.KindSizeBins {
			if err := sw.CountPackets(spec.Port, spec.Dir); err != nil {
				return nil, fmt.Errorf("collector: polling %v: %w", spec, err)
			}
		}
	}
	p := &Poller{cfg: cfg, sw: sw, src: src, emit: emit}
	p.onStart, p.onDone = p.startPoll, p.finishPoll
	if cfg.Metrics != nil {
		p.m = *cfg.Metrics
		p.tlCost = p.m.PollCost.Local()
	}
	p.baseCost = p.computeBaseCost()
	return p, nil
}

// computeBaseCost sums the per-poll counter access costs: the first
// instance of each kind pays full latency, further instances pay half
// (batched reads amortize addressing and bus turnaround).
func (p *Poller) computeBaseCost() simclock.Duration {
	seen := make(map[asic.CounterKind]bool)
	cost := loopOverhead
	for _, spec := range p.cfg.Counters {
		c := asic.AccessCost(spec.Kind)
		if seen[spec.Kind] {
			cost += c / 2
		} else {
			cost += c
			seen[spec.Kind] = true
		}
	}
	return cost
}

// BaseCost returns the modeled cost of one poll with no interference.
// Exposed so campaigns can assert their interval is feasible.
func (p *Poller) BaseCost() simclock.Duration { return p.baseCost }

// Install arms the polling loop on the scheduler, first poll one interval
// from now.
func (p *Poller) Install(sched *eventq.Scheduler) {
	if p.sched != nil {
		panic("collector: Install called twice")
	}
	p.sched = sched
	p.started = sched.Now()
	p.scheduleAt(sched.Now().Add(p.cfg.Interval))
}

// telemetryFlushEvery is the poll count between registry flushes: at the
// paper's 25 µs interval, scrapes lag the loop by at most 1.6 ms.
const telemetryFlushEvery = 64

// Stop halts the loop after any in-flight poll completes and flushes the
// remaining batched telemetry.
func (p *Poller) Stop() {
	p.stopped = true
	if p.sched != nil {
		p.flushTelemetry(p.sched.Now())
	}
}

// flushTelemetry folds the batched per-poll telemetry into the shared
// instruments and refreshes the CPU-busy gauge.
func (p *Poller) flushTelemetry(now simclock.Time) {
	p.m.Polls.Add(p.tlPolls)
	p.m.BusyNanos.Add(p.tlBusy)
	p.m.Missed.Add(p.tlMissed)
	p.tlPolls, p.tlBusy, p.tlMissed = 0, 0, 0
	p.tlCost.Flush()
	if p.m.CPUBusy != nil {
		if elapsed := now.Sub(p.started); elapsed > 0 {
			p.m.CPUBusy.Set(float64(p.busy.Load()) / float64(elapsed))
		}
	}
}

// Samples returns the number of completed polls. Safe to call from any
// goroutine while the loop runs.
func (p *Poller) Samples() uint64 { return p.samples.Load() }

// Missed returns the number of missed sampling intervals. Safe to call
// from any goroutine while the loop runs.
func (p *Poller) Missed() uint64 { return p.missed.Load() }

// MissRate returns missed / (missed + samples) — the Table 1 metric: the
// fraction of scheduled sampling intervals in which no sample was taken.
// Safe to call from any goroutine while the loop runs.
func (p *Poller) MissRate() float64 {
	missed := p.missed.Load()
	total := missed + p.samples.Load()
	if total == 0 {
		return 0
	}
	return float64(missed) / float64(total)
}

// CPUBusyFrac returns the fraction of elapsed time the loop spent inside
// polls — the utilization cost the paper trades against precision.
func (p *Poller) CPUBusyFrac() float64 {
	if p.sched == nil {
		return 0
	}
	elapsed := p.sched.Now().Sub(p.started)
	if elapsed <= 0 {
		return 0
	}
	return float64(p.busy.Load()) / float64(elapsed)
}

// scheduleAt arms one poll beginning at due.
func (p *Poller) scheduleAt(due simclock.Time) {
	p.due = due
	p.sched.At(due, p.onStart)
}

// startPoll begins the poll that was due at p.due: it draws the poll's
// cost and arms its completion.
func (p *Poller) startPoll(start simclock.Time) {
	if p.stopped {
		return
	}
	cost := p.pollCost(start)
	p.busy.Add(int64(cost))
	p.tlBusy += uint64(cost)
	if p.tlCost != nil {
		p.tlCost.Observe(float64(cost) / 1e3)
	}
	p.sched.At(start.Add(cost), p.onDone)
}

// finishPoll completes the poll in flight: it reads and emits, then arms
// the next poll.
func (p *Poller) finishPoll(now simclock.Time) {
	if p.stopped {
		return
	}
	p.readAndEmit(now)
	// The next poll begins at the first interval boundary after
	// completion; boundaries overrun while polling are missed.
	k, missed, wireMissed := missedForOverrun(now.Sub(p.due), p.cfg.Interval)
	p.pendingMissed = wireMissed
	p.missed.Add(missed)
	p.tlMissed += missed
	if p.tlPolls >= telemetryFlushEvery {
		p.flushTelemetry(now)
	}
	p.scheduleAt(p.due.Add(simclock.Duration(k) * p.cfg.Interval))
}

// missedForOverrun converts a poll-completion overrun into the number of
// interval boundaries stepped over. k is the multiple of interval to the
// next free boundary, missed = k-1 the missed-interval count, and
// wireMissed the count clamped to the wire format's uint32 Missed field —
// an extreme overrun (e.g. a multi-second stall against a nanosecond
// interval) must saturate rather than silently truncate.
func missedForOverrun(overrun, interval simclock.Duration) (k int64, missed uint64, wireMissed uint32) {
	k = int64(overrun/interval) + 1
	missed = uint64(k - 1)
	if missed > math.MaxUint32 {
		return k, missed, math.MaxUint32
	}
	return k, missed, uint32(missed)
}

// pollCost samples the duration of one poll under the interference model,
// for a poll starting at instant start.
func (p *Poller) pollCost(start simclock.Time) simclock.Duration {
	jitter := 1 + jitterFrac*(2*p.src.Float64()-1)
	cost := simclock.Duration(float64(p.baseCost) * jitter)
	pi := pInterrupt
	if !p.cfg.DedicatedCore {
		pi *= 4
		if pi > 1 {
			pi = 1
		}
	}
	if p.src.Bool(pi) {
		cost += simclock.Duration(p.src.Exp(float64(interruptMean)))
	}
	if p.cfg.Fault != nil {
		cost += p.cfg.Fault.PollDelay(start.Sub(p.started), p.baseCost)
	}
	return cost
}

// readAndEmit reads every configured counter and emits one sample each,
// all stamped with the completion time. While a stuck-read fault is
// active, reads replay the latched previous values without touching the
// ASIC — so clear-on-read registers keep accumulating and cumulative
// counters re-emit a stale (but still monotone) value.
func (p *Poller) readAndEmit(now simclock.Time) {
	p.samples.Add(1)
	p.tlPolls++
	stuck := p.cfg.Fault != nil && p.cfg.Fault.ReadStuck(now.Sub(p.started))
	if p.lastRead == nil {
		p.lastRead = make([]wire.Sample, len(p.cfg.Counters))
	}
	for i, spec := range p.cfg.Counters {
		s := wire.Sample{
			Time:   now,
			Port:   uint16(spec.Port),
			Dir:    spec.Dir,
			Kind:   spec.Kind,
			Missed: p.pendingMissed,
		}
		if stuck {
			s.Value = p.lastRead[i].Value
			s.Bins = p.lastRead[i].Bins
			p.emit.Emit(s)
			continue
		}
		port := p.sw.Port(spec.Port)
		switch spec.Kind {
		case asic.KindBytes:
			s.Value = port.Bytes(spec.Dir)
		case asic.KindPackets:
			s.Value = port.Packets(spec.Dir)
		case asic.KindSizeBins:
			s.Bins = port.SizeBins(spec.Dir)
		case asic.KindDrops:
			s.Value = port.Drops()
		case asic.KindBufferPeak:
			s.Value = uint64(p.sw.ReadPeakBufferAndClear())
		case asic.KindECNMarks:
			s.Value = port.ECNMarks()
		}
		p.lastRead[i] = s
		p.emit.Emit(s)
	}
	p.pendingMissed = 0
}
