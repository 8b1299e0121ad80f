package collector

import (
	"io"
	"time"

	"mburst/internal/obs"
)

// This file defines the collection pipeline's telemetry instruments (see
// internal/obs). Every constructor accepts a nil *obs.Registry and then
// returns instruments whose updates are no-ops, so the pipeline can be
// built identically with telemetry on or off — the disabled cost is one
// predicted branch per update.

// PollerMetrics instruments the sampling loop. Share one instance across
// pollers to aggregate a campaign, or register per-poller label sets.
type PollerMetrics struct {
	// Polls counts completed polls (each may emit several samples).
	Polls *obs.Counter
	// Missed counts missed sampling intervals — the Table 1 numerator.
	Missed *obs.Counter
	// BusyNanos accumulates simulated time spent inside polls.
	BusyNanos *obs.Counter
	// CPUBusy is the running busy fraction (busy / elapsed).
	CPUBusy *obs.Gauge
	// PollCost is the per-poll cost distribution in microseconds.
	PollCost *obs.Histogram
}

// NewPollerMetrics registers the poller instrument set on reg.
func NewPollerMetrics(reg *obs.Registry, labels ...obs.Label) *PollerMetrics {
	return &PollerMetrics{
		Polls: reg.Counter("mburst_poller_polls_total",
			"Completed polls of the counter set.", labels...),
		Missed: reg.Counter("mburst_poller_missed_intervals_total",
			"Sampling intervals in which no sample was taken (Table 1).", labels...),
		BusyNanos: reg.Counter("mburst_poller_busy_ns_total",
			"Simulated nanoseconds spent inside polls.", labels...),
		CPUBusy: reg.Gauge("mburst_poller_cpu_busy_frac",
			"Fraction of elapsed time spent polling.", labels...),
		PollCost: reg.Histogram("mburst_poller_poll_cost_us",
			"Per-poll cost in microseconds (access latency + jitter + interrupts).",
			obs.DefLatencyBucketsUS, labels...),
	}
}

// ClientMetrics instruments the switch→collector transport
// (ReconnectingClient).
type ClientMetrics struct {
	// Batches counts batches flushed to the transport.
	Batches *obs.Counter
	// Bytes counts wire bytes written (framing included).
	Bytes *obs.Counter
	// FlushErrors counts failed batch writes.
	FlushErrors *obs.Counter
	// Delivered counts samples written to a live transport.
	Delivered *obs.Counter
	// Dropped counts samples discarded during outages (buffer overflow or
	// shutdown with an unreachable collector).
	Dropped *obs.Counter
	// Redials counts transport re-establishments.
	Redials *obs.Counter
	// Backoff is the current reconnect backoff in seconds (0 when
	// connected).
	Backoff *obs.Gauge
	// Pending is the number of samples buffered awaiting flush.
	Pending *obs.Gauge
	// Spooled is the number of samples sealed into the retransmit spool
	// awaiting redelivery.
	Spooled *obs.Gauge
	// SpoolDrops counts samples shed from a full retransmit spool (a
	// subset of Dropped).
	SpoolDrops *obs.Counter
}

// NewClientMetrics registers the client instrument set on reg.
func NewClientMetrics(reg *obs.Registry, labels ...obs.Label) *ClientMetrics {
	return &ClientMetrics{
		Batches: reg.Counter("mburst_client_batches_flushed_total",
			"Sample batches flushed to the collector transport.", labels...),
		Bytes: reg.Counter("mburst_client_bytes_flushed_total",
			"Wire bytes written to the collector transport.", labels...),
		FlushErrors: reg.Counter("mburst_client_flush_errors_total",
			"Batch writes that failed.", labels...),
		Delivered: reg.Counter("mburst_client_samples_delivered_total",
			"Samples successfully written to a transport.", labels...),
		Dropped: reg.Counter("mburst_client_samples_dropped_total",
			"Samples discarded while the collector was unreachable.", labels...),
		Redials: reg.Counter("mburst_client_redials_total",
			"Times the transport was (re)established.", labels...),
		Backoff: reg.Gauge("mburst_client_backoff_seconds",
			"Current reconnect backoff; 0 while connected.", labels...),
		Pending: reg.Gauge("mburst_client_pending_samples",
			"Samples buffered awaiting flush.", labels...),
		Spooled: reg.Gauge("mburst_client_spooled_samples",
			"Samples sealed in the retransmit spool awaiting redelivery.", labels...),
		SpoolDrops: reg.Counter("mburst_client_spool_dropped_total",
			"Samples shed from a full retransmit spool.", labels...),
	}
}

// ServerMetrics instruments the collector service (Serve side).
type ServerMetrics struct {
	// Conns counts accepted switch connections.
	Conns *obs.Counter
	// ActiveConns is the number of currently connected switches.
	ActiveConns *obs.Gauge
	// DecodeErrors counts connections torn down by stream corruption.
	DecodeErrors *obs.Counter
	// IngestLatency is the wall-clock cost of handling one decoded batch
	// (the handler chain: stats accounting + archival), in microseconds.
	IngestLatency *obs.Histogram
	// EpochRestarts counts agent restart transitions observed by the
	// epoch gate (a rack's epoch increasing).
	EpochRestarts *obs.Counter
	// StaleBatches counts batches dropped for carrying a superseded epoch.
	StaleBatches *obs.Counter
	// ReorderedBatches counts same-epoch batches dropped for regressing
	// sample time (duplicates or reordering).
	ReorderedBatches *obs.Counter
}

// NewServerMetrics registers the server instrument set on reg.
func NewServerMetrics(reg *obs.Registry, labels ...obs.Label) *ServerMetrics {
	return &ServerMetrics{
		Conns: reg.Counter("mburst_server_connections_total",
			"Switch connections accepted.", labels...),
		ActiveConns: reg.Gauge("mburst_server_active_connections",
			"Currently open switch connections.", labels...),
		DecodeErrors: reg.Counter("mburst_server_decode_errors_total",
			"Connections that failed batch decoding.", labels...),
		IngestLatency: reg.Histogram("mburst_ingest_latency_us",
			"Wall-clock batch handling latency in microseconds.",
			obs.DefLatencyBucketsUS, labels...),
		EpochRestarts: reg.Counter("mburst_server_epoch_restarts_total",
			"Agent restart transitions observed by the epoch gate.", labels...),
		StaleBatches: reg.Counter("mburst_server_stale_epoch_batches_total",
			"Batches dropped for carrying a superseded agent epoch.", labels...),
		ReorderedBatches: reg.Counter("mburst_server_reordered_batches_total",
			"Same-epoch batches dropped for regressing sample time.", labels...),
	}
}

// RecoveryMetrics instruments the durable ingest pipeline
// (a Shard with an archive): checkpoint cadence and failures, crash-replay volume,
// and batches lost to a dead archive.
type RecoveryMetrics struct {
	// Checkpoints counts checkpoints persisted.
	Checkpoints *obs.Counter
	// CheckpointErrors counts checkpoint saves that failed (the archive
	// tail covers the gap until the next success).
	CheckpointErrors *obs.Counter
	// CheckpointLag is the number of admitted batches not yet covered by
	// a checkpoint — the replay debt a crash right now would incur.
	CheckpointLag *obs.Gauge
	// ReplayedBatches counts archived batches re-applied at resume.
	ReplayedBatches *obs.Counter
	// IngestFailures counts batches dropped because the archive stopped
	// accepting writes.
	IngestFailures *obs.Counter
	// ArchivePassed and ArchiveEncoded count the frames the archive wrote,
	// by how (see wire.Writer): passed through as the agent sent them, or
	// encoded again — a rack's first frame after a segment roll, a frame
	// out of step with the archive's chain, a batch built in process.
	ArchivePassed  *obs.Counter
	ArchiveEncoded *obs.Counter
	// CheckpointBytes is the size of the newest checkpoint: the last one
	// saved, or after a Resume the one it loaded.
	CheckpointBytes *obs.Gauge
	// CheckpointSeconds is the wall-clock of each save — state cut, encode
	// and atomic write, the archive sync before it excluded.
	CheckpointSeconds *obs.Histogram
	// CheckpointLoadSeconds is how long Resume took to read, decode,
	// validate and restore the checkpoint (one step, which decodes
	// straight into the taps), and ResumeSeconds the whole Resume:
	// that load and the archive-tail replay.
	CheckpointLoadSeconds *obs.Gauge
	ResumeSeconds         *obs.Gauge
	// Now is the wall clock behind the three durations. When nil (a shard
	// without RecoveryMetrics) nothing is timed.
	Now func() time.Time
}

// now reads the clock, or returns the zero time when there is none.
func (m *RecoveryMetrics) now() time.Time {
	if m.Now == nil {
		return time.Time{}
	}
	return m.Now()
}

// since is the seconds elapsed from a now() reading.
func (m *RecoveryMetrics) since(start time.Time) float64 {
	return m.now().Sub(start).Seconds()
}

// checkpointSecondsBuckets spans an MBC1 save (a millisecond or two of
// encode plus the fsync) up to a disk that has stalled.
var checkpointSecondsBuckets = []float64{0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1, 2.5}

// NewRecoveryMetrics registers the durability instrument set on reg.
func NewRecoveryMetrics(reg *obs.Registry, labels ...obs.Label) *RecoveryMetrics {
	return &RecoveryMetrics{
		Checkpoints: reg.Counter("mburst_collector_checkpoints_total",
			"Durability checkpoints persisted.", labels...),
		CheckpointErrors: reg.Counter("mburst_collector_checkpoint_errors_total",
			"Checkpoint saves that failed.", labels...),
		CheckpointLag: reg.Gauge("mburst_collector_checkpoint_lag_batches",
			"Admitted batches not yet covered by a checkpoint.", labels...),
		ReplayedBatches: reg.Counter("mburst_collector_replayed_batches_total",
			"Archived batches replayed into restored accumulators at resume.", labels...),
		IngestFailures: reg.Counter("mburst_collector_ingest_failures_total",
			"Batches dropped because the archive stopped accepting writes.", labels...),
		ArchivePassed: reg.Counter("mburst_collector_archive_frames_passed_total",
			"Archived frames written as the agent sent them.", labels...),
		ArchiveEncoded: reg.Counter("mburst_collector_archive_frames_encoded_total",
			"Archived frames the archive encoded itself.", labels...),
		CheckpointBytes: reg.Gauge("mburst_collector_checkpoint_bytes",
			"Size of the newest checkpoint file (last saved, or loaded at resume).", labels...),
		CheckpointSeconds: reg.Histogram("mburst_collector_checkpoint_seconds",
			"Wall-clock of one checkpoint save: state cut, encode, atomic write.",
			checkpointSecondsBuckets, labels...),
		CheckpointLoadSeconds: reg.Gauge("mburst_collector_checkpoint_load_seconds",
			"Wall-clock Resume spent reading, decoding, validating and restoring the checkpoint.", labels...),
		ResumeSeconds: reg.Gauge("mburst_collector_resume_seconds",
			"Wall-clock of Resume: checkpoint load, restore and archive-tail replay.", labels...),
		Now: time.Now,
	}
}

// ShardMetrics instruments one collector shard's fan-in edge.
type ShardMetrics struct {
	// Misrouted counts batches dropped because the placement maps their
	// rack to a different shard — a placement-generation mismatch
	// between agent and collector, never a normal condition.
	Misrouted *obs.Counter
	// Published counts accumulator snapshots the shard cut for the
	// aggregation tier.
	Published *obs.Counter
}

// NewShardMetrics registers the shard instrument set on reg.
func NewShardMetrics(reg *obs.Registry, labels ...obs.Label) *ShardMetrics {
	return &ShardMetrics{
		Misrouted: reg.Counter("mburst_shard_misrouted_batches_total",
			"Batches dropped because the placement owns their rack elsewhere.", labels...),
		Published: reg.Counter("mburst_shard_updates_published_total",
			"Accumulator snapshots published to the aggregation tier.", labels...),
	}
}

// AggregatorMetrics instruments the fleet aggregation tier: the bounded
// fan-in queue's exact back-pressure accounting and the merge path.
// Enqueued + Dropped equals the updates offered; Applied + Stale +
// Rejected equals the updates drained — the equalities the back-pressure
// exactness tests pin down.
type AggregatorMetrics struct {
	// Enqueued counts updates accepted into the fan-in queue.
	Enqueued *obs.Counter
	// Dropped counts updates Offer shed because the queue was full.
	// Dropping loses freshness only: updates are cumulative cuts.
	Dropped *obs.Counter
	// Deferred counts Deliver calls that found the queue full and had to
	// block — the back-pressure signal on the must-land path.
	Deferred *obs.Counter
	// Applied counts updates folded into the retained per-shard state.
	Applied *obs.Counter
	// Stale counts updates superseded by an equal-or-newer Seq already
	// retained for their shard.
	Stale *obs.Counter
	// Rejected counts updates with an out-of-range shard index.
	Rejected *obs.Counter
	// QueueDepth is the fan-in queue's current occupancy.
	QueueDepth *obs.Gauge
	// Merges counts fleet-state merges served.
	Merges *obs.Counter
}

// NewAggregatorMetrics registers the aggregator instrument set on reg.
func NewAggregatorMetrics(reg *obs.Registry, labels ...obs.Label) *AggregatorMetrics {
	return &AggregatorMetrics{
		Enqueued: reg.Counter("mburst_agg_updates_enqueued_total",
			"Shard updates accepted into the fan-in queue.", labels...),
		Dropped: reg.Counter("mburst_agg_updates_dropped_total",
			"Shard updates shed by Offer because the fan-in queue was full.", labels...),
		Deferred: reg.Counter("mburst_agg_updates_deferred_total",
			"Deliver calls that blocked on a full fan-in queue.", labels...),
		Applied: reg.Counter("mburst_agg_updates_applied_total",
			"Shard updates folded into the retained fleet state.", labels...),
		Stale: reg.Counter("mburst_agg_updates_stale_total",
			"Shard updates superseded by a newer retained sequence.", labels...),
		Rejected: reg.Counter("mburst_agg_updates_rejected_total",
			"Shard updates with an out-of-range shard index.", labels...),
		QueueDepth: reg.Gauge("mburst_agg_queue_depth",
			"Fan-in queue occupancy.", labels...),
		Merges: reg.Counter("mburst_agg_merges_total",
			"Fleet-state merges served.", labels...),
	}
}

// countingWriter counts bytes successfully written to the underlying
// writer. The count is read by the single flushing goroutine only; the
// metrics counters it feeds are atomic.
type countingWriter struct {
	w io.Writer
	n uint64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += uint64(n)
	return n, err
}
