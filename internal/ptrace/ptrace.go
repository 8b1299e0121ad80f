// Package ptrace is the measurement pipeline's deterministic span-tracing
// layer: it shows where an individual batch's time goes as it moves
// poll → encode → send → ingest → gate → archive → figures, the per-stage
// visibility the aggregate counters of internal/obs cannot provide.
//
// The paper's central trade-off (Table 1) is that measurement fidelity is
// bounded by the latency and cost of the collection pipeline itself, so
// the pipeline must be able to trace itself — without giving up the
// repository's reproducibility guarantee. Two design rules follow:
//
//   - Trace identity is content-derived. A batch's TraceID is a pure hash
//     of (rack, epoch, first-sample time); the client and the collector
//     compute the same ID independently, so their spans join at render
//     time with no wire-format change and no context propagation.
//   - Span times are simclock-stamped, never wall-clock. The poll.read
//     span covers the batch's sample interval directly; this package
//     alone places every post-poll span (Window, Modeled, Chain: an
//     integer function of the batch's sample count and framed byte size),
//     so a batch's campaign and live traces agree, and a campaign traced
//     twice — at any worker count — produces byte-identical span dumps.
//   - A span is recorded whole. Every extent is known when the span is
//     recorded, so Trace.Record takes one Span value; there is no open
//     span for a caller to forget to close.
//
// Spans land in a bounded lock-free ring buffer per process (atomic
// pointer slots; writers never block, old spans are overwritten), feed
// per-stage obs histograms, and are served as JSON at /spans plus a text
// report (WriteReport) at /tracez on the daemons' debug mux. cmd/mbtrace
// prints the same report from dumps offline. Deterministic head sampling (seeded through
// internal/rng) bounds overhead: whether a trace is sampled is a pure
// function of (Seed, TraceID), so every process sampling at the same rate
// with the same seed keeps the same traces.
package ptrace

import (
	"sort"
	"sync/atomic"

	"mburst/internal/obs"
	"mburst/internal/rng"
	"mburst/internal/simclock"
)

// TraceID identifies one batch's journey through the pipeline. It is
// derived from batch content (see BatchID), never from a clock or global
// RNG, so independent processes agree on it.
type TraceID uint64

// BatchID derives the trace ID for a batch: a pure hash of the rack, the
// agent restart epoch, and the batch's first sample time. Any process
// holding the batch computes the same ID.
func BatchID(rack, epoch uint32, first simclock.Time) TraceID {
	h := mix64(uint64(rack)<<32 | uint64(epoch))
	h = mix64(h ^ uint64(first.Nanoseconds()))
	return TraceID(h)
}

// mix64 is the SplitMix64 finalizer: a cheap, well-distributed 64-bit
// permutation (the same mixer internal/rng seeds with).
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Stage names one pipeline stage. The values are stable API: they appear
// in span dumps, metric labels, and mbtrace output.
type Stage string

// The pipeline stages, in chain order.
const (
	StagePollRead      Stage = "poll.read"
	StageWireEncode    Stage = "wire.encode"
	StageClientSend    Stage = "client.send"
	StageClientBackoff Stage = "client.backoff" // child of client.send
	StageServerIngest  Stage = "server.ingest"
	StageEpochGate     Stage = "epoch.gate"
	StageArchiveWrite  Stage = "archive.write"
	StageFiguresApply  Stage = "figures.apply"
	// StageCheckpoint marks a collector durability checkpoint being
	// persisted; StageRecover marks an archived batch being replayed into
	// restored accumulators at restart. Both sit outside the per-batch
	// cost chain, so their spans are positioned at the triggering batch's
	// chain position with zero modeled width.
	StageCheckpoint Stage = "collector.checkpoint"
	StageRecover    Stage = "collector.recover"
)

// Stages lists every stage in chain order (backoff immediately after its
// parent client.send).
var Stages = []Stage{
	StagePollRead, StageWireEncode, StageClientSend, StageClientBackoff,
	StageServerIngest, StageEpochGate, StageArchiveWrite, StageFiguresApply,
	StageCheckpoint, StageRecover,
}

// rank orders stages for canonical snapshots and waterfalls.
func (s Stage) rank() int {
	for i, st := range Stages {
		if st == s {
			return i
		}
	}
	return len(Stages)
}

// Epoch-gate verdicts recorded as span attributes.
const (
	VerdictAccept      = "accept"
	VerdictDropStale   = "drop-stale"
	VerdictDropReorder = "drop-reorder"
)

// Span is one stage's occupancy of simulated time for one batch. Start
// and Stop are simclock instants; for poll.read they are the batch's
// first and last sample times, for every other stage they come from
// Window.
type Span struct {
	Trace TraceID `json:"trace"`
	Stage Stage   `json:"stage"`
	// Parent is the enclosing stage for child spans (client.backoff under
	// client.send); empty for top-level stages.
	Parent Stage         `json:"parent,omitempty"`
	Rack   uint32        `json:"rack"`
	Epoch  uint32        `json:"epoch"`
	Start  simclock.Time `json:"start_ns"`
	Stop   simclock.Time `json:"end_ns"`
	// Samples and Bytes describe the batch at this stage (framed wire
	// size; see wire.EncodedSize).
	Samples int `json:"samples,omitempty"`
	Bytes   int `json:"bytes,omitempty"`
	// Verdict carries the epoch gate's accept/drop decision.
	Verdict string `json:"verdict,omitempty"`
	// Fault names the fault kinds active during the span ("stuck,stall"),
	// for poll.read spans recorded under injection.
	Fault string `json:"fault,omitempty"`
}

// Duration returns the span's extent.
func (sp Span) Duration() simclock.Duration { return sp.Stop.Sub(sp.Start) }

// Config parameterizes a Tracer.
type Config struct {
	// Capacity is the span ring size, rounded up to a power of two
	// (default 4096). The ring bounds memory; once full, the oldest spans
	// are overwritten.
	Capacity int
	// SampleRate is the fraction of traces kept, in [0, 1]; 0 means
	// trace everything (head sampling is opt-in). Whether a given TraceID
	// is sampled is a pure function of (Seed, TraceID).
	SampleRate float64
	// Seed keys the deterministic sampler (via internal/rng).
	Seed uint64
	// Metrics, when non-nil, receives tracer telemetry: spans recorded,
	// traces sampled/unsampled, and one latency histogram per stage.
	Metrics *obs.Registry
}

// Tracer records spans into a bounded lock-free ring. All methods are
// safe for concurrent use; a nil *Tracer is a no-op, so pipeline code
// instruments unconditionally.
type Tracer struct {
	// key/thresh implement deterministic head sampling: a trace is kept
	// iff mix64(id ^ key) <= thresh.
	key    uint64
	thresh uint64

	slots []atomic.Pointer[Span]
	mask  uint64
	// cursor counts publishes; slot = (cursor-1) & mask.
	cursor atomic.Uint64

	spans     *obs.Counter
	sampled   *obs.Counter
	unsampled *obs.Counter
	stageHist map[Stage]*obs.Histogram
}

// DefaultCapacity is the ring size when Config.Capacity is zero.
const DefaultCapacity = 4096

// New builds a tracer from cfg.
func New(cfg Config) *Tracer {
	capacity := cfg.Capacity
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	capacity = ceilPow2(capacity)
	t := &Tracer{
		slots: make([]atomic.Pointer[Span], capacity),
		mask:  uint64(capacity - 1),
	}
	// The sampler key is drawn from a labeled rng split so it is
	// independent of every other stream derived from the same seed.
	t.key = rng.New(cfg.Seed).Split("ptrace/sampler").Uint64()
	switch {
	case cfg.SampleRate <= 0 || cfg.SampleRate >= 1:
		t.thresh = ^uint64(0)
	default:
		t.thresh = uint64(cfg.SampleRate * float64(^uint64(0)))
	}
	if reg := cfg.Metrics; reg != nil {
		t.spans = reg.Counter("mburst_ptrace_spans_total",
			"Pipeline spans published to the trace ring.")
		t.sampled = reg.Counter("mburst_ptrace_traces_sampled_total",
			"Batch traces kept by the deterministic head sampler.")
		t.unsampled = reg.Counter("mburst_ptrace_traces_dropped_total",
			"Batch traces dropped by the deterministic head sampler.")
		t.stageHist = make(map[Stage]*obs.Histogram, len(Stages))
		for _, st := range Stages {
			t.stageHist[st] = reg.Histogram("mburst_ptrace_stage_latency_us",
				"Per-stage pipeline span latency in simulated microseconds.",
				obs.DefLatencyBucketsUS, obs.L("stage", string(st)))
		}
	}
	return t
}

// ceilPow2 rounds n up to the next power of two.
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Capacity returns the ring size in slots (0 for nil).
func (t *Tracer) Capacity() int {
	if t == nil {
		return 0
	}
	return len(t.slots)
}

// Recorded returns how many spans have been published (including any
// since overwritten).
func (t *Tracer) Recorded() uint64 {
	if t == nil {
		return 0
	}
	return t.cursor.Load()
}

// Evicted returns how many spans have been overwritten by ring wrap.
func (t *Tracer) Evicted() uint64 {
	if t == nil {
		return 0
	}
	c := t.cursor.Load()
	if c <= uint64(len(t.slots)) {
		return 0
	}
	return c - uint64(len(t.slots))
}

// SampledID reports whether the sampler keeps the given trace ID — a pure
// function of (Seed, id). A nil tracer samples nothing.
func (t *Tracer) SampledID(id TraceID) bool {
	if t == nil {
		return false
	}
	return mix64(uint64(id)^t.key) <= t.thresh
}

// Trace is a per-batch handle. The zero Trace (unsampled, or from a nil
// tracer) records nothing, so call sites never branch on sampling.
type Trace struct {
	t     *Tracer
	id    TraceID
	rack  uint32
	epoch uint32
}

// Batch returns the trace handle for a batch, applying the sampler.
func (t *Tracer) Batch(rack, epoch uint32, first simclock.Time) Trace {
	if t == nil {
		return Trace{}
	}
	id := BatchID(rack, epoch, first)
	if !t.SampledID(id) {
		t.unsampled.Inc()
		return Trace{}
	}
	t.sampled.Inc()
	return Trace{t: t, id: id, rack: rack, epoch: epoch}
}

// Sampled reports whether this trace is being recorded.
func (tr Trace) Sampled() bool { return tr.t != nil }

// ID returns the trace ID (0 for an unsampled handle).
func (tr Trace) ID() TraceID { return tr.id }

// Record publishes sp, a whole span with both ends known, to the
// tracer's ring (lock-free: one atomic fetch-add for the slot, one atomic
// pointer store of a copy) and its stage histogram. The handle's trace
// ID, rack and epoch overwrite whatever sp carries. On the zero Trace it
// does nothing.
func (tr Trace) Record(sp Span) {
	t := tr.t
	if t == nil {
		return
	}
	// Copy after the nil check: storing &sp itself would move the
	// parameter to the heap on every call, sampled or not.
	cp := sp
	cp.Trace, cp.Rack, cp.Epoch = tr.id, tr.rack, tr.epoch
	idx := t.cursor.Add(1) - 1
	t.slots[idx&t.mask].Store(&cp)
	t.spans.Inc()
	if t.stageHist != nil {
		if h := t.stageHist[cp.Stage]; h != nil {
			h.Observe(float64(cp.Duration()) / float64(simclock.Microsecond))
		}
	}
}

// Snapshot copies the ring's current spans in canonical order: by trace
// ID, then stage rank, then start time. The order is a pure function of
// the span set, so two runs that recorded the same spans — in any
// interleaving — snapshot identically.
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	out := make([]Span, 0, len(t.slots))
	for i := range t.slots {
		if sp := t.slots[i].Load(); sp != nil {
			out = append(out, *sp)
		}
	}
	sortSpans(out)
	return out
}

// sortSpans orders spans canonically (trace, stage rank, start, stop,
// then remaining fields for total order).
func sortSpans(spans []Span) {
	sort.Slice(spans, func(i, j int) bool {
		a, b := &spans[i], &spans[j]
		if a.Trace != b.Trace {
			return a.Trace < b.Trace
		}
		if ra, rb := a.Stage.rank(), b.Stage.rank(); ra != rb {
			return ra < rb
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Stop != b.Stop {
			return a.Stop < b.Stop
		}
		return a.Verdict < b.Verdict
	})
}
