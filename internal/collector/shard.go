package collector

import (
	"errors"
	"fmt"
	"sync"

	"mburst/internal/ptrace"
	"mburst/internal/shard"
	"mburst/internal/wire"
)

// This file is the collector's one ingest pipeline. A Shard orders every
// batch through placement filter → epoch gate → durable archive (when it
// has one) → ingest accounting → live-figures tap → checkpoint cadence
// under one lock, behind one BatchHandler, plus a Publish method that
// cuts the shard's accumulator state into a ShardUpdate for the
// Aggregator. A single collector is a fleet of one shard (ID 0, nil
// placement) and a volatile collector is a shard without the archive
// stage; mbcollectd, core.RunFleet and the benchmark all run this
// pipeline, which is why the fleet merge can be byte-exact. The
// durability half — Resume, Checkpoint and the state cut — is in
// checkpoint.go.

// ShardConfig assembles one shard-local ingest pipeline.
type ShardConfig struct {
	// ID is the shard's index in the placement; it tags every update the
	// shard publishes.
	ID int
	// Placement, when non-nil, polices ownership: batches from racks the
	// placement maps to another shard are dropped and counted as
	// misrouted instead of polluting the shard's accumulators (which
	// would make the fleet merge double-count).
	Placement *shard.Placement
	// Figures, when non-nil, is the shard-local live-figures tap: it
	// receives every admitted batch and is checkpointed/restored
	// alongside the archive mark. Its state is what the aggregator merges
	// into fleet figures.
	Figures *LiveFigures
	// Stats is the shard-local ingest accounting; required.
	Stats *IngestStats
	// Archive, when non-nil, makes the shard durable: admitted batches are
	// written ahead to it (gate → archive → stats → figures →
	// checkpoint) and the shard can crash and Resume. When nil the shard
	// is volatile: gate → stats → figures.
	Archive ArchiveSink
	// CheckpointPath is where a durable shard saves its checkpoints; empty
	// disables periodic checkpointing (Resume then replays the whole
	// archive). Every is the cadence in admitted batches; <= 0 selects
	// DefaultCheckpointEvery. Both are ignored when Archive is nil.
	CheckpointPath string
	Every          int
	// GateMetrics feeds the epoch gate's drop counters; may be nil.
	GateMetrics *ServerMetrics
	// RecoveryMetrics receives the durable shard's durability telemetry;
	// may be nil.
	RecoveryMetrics *RecoveryMetrics
	// Metrics receives shard-level telemetry (misrouted drops, published
	// updates); may be nil.
	Metrics *ShardMetrics
	// Tracer, when non-nil, records epoch.gate, archive.write,
	// figures.apply, collector.checkpoint, and collector.recover spans.
	Tracer *ptrace.Tracer
}

// Shard is one collector shard: the ingest pipeline — a BatchHandler
// that gates, archives, accounts, and periodically checkpoints under one
// lock, so the persisted state is always a consistent cut — plus the
// publish surface the aggregation tier consumes.
type Shard struct {
	cfg    ShardConfig
	m      ShardMetrics
	rec    RecoveryMetrics
	gate   *EpochGate
	record BatchHandler // cfg.Stats accounting
	seq    uint64       // owned by the single publisher goroutine; see Publish

	mu        sync.Mutex
	err       error // sticky fatal: the archive can no longer accept writes
	every     int
	sinceCkpt int
	ckptBuf   []byte // checkpoint encode buffer, reused across saves

	// frames is the archive's frame count, when it keeps one, and
	// framesSeen its reading after the last write.
	frames     archiveFrames
	framesSeen wire.FrameCounts
}

// archiveFrames is an ArchiveSink that counts how it wrote each frame, as
// *trace.ArchiveWriter does.
type archiveFrames interface{ Frames() wire.FrameCounts }

// Validate reports what NewShard would reject, building nothing: a caller
// about to create the archive the shard will write to checks the rest of
// the configuration first, so a mistyped shard ID leaves no directory
// behind.
func (cfg ShardConfig) Validate() error {
	if cfg.Stats == nil {
		return errors.New("collector: Shard needs an IngestStats")
	}
	if cfg.Placement != nil {
		if err := cfg.Placement.Validate(); err != nil {
			return err
		}
		if cfg.ID < 0 || cfg.ID >= cfg.Placement.NumShards() {
			return fmt.Errorf("collector: shard id %d outside placement of %d shards",
				cfg.ID, cfg.Placement.NumShards())
		}
	}
	return nil
}

// NewShard validates cfg and builds the pipeline.
func NewShard(cfg ShardConfig) (*Shard, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Shard{
		cfg:    cfg,
		gate:   NewEpochGate(func(*wire.Batch) {}, cfg.GateMetrics),
		record: cfg.Stats.Wrap(nil),
		every:  cfg.Every,
	}
	if s.every <= 0 {
		s.every = DefaultCheckpointEvery
	}
	if cfg.Metrics != nil {
		s.m = *cfg.Metrics
	}
	if cfg.RecoveryMetrics != nil {
		s.rec = *cfg.RecoveryMetrics
	}
	s.frames, _ = cfg.Archive.(archiveFrames)
	return s, nil
}

// ID returns the shard's placement index.
func (s *Shard) ID() int { return s.cfg.ID }

// Handle implements BatchHandler. Batches from racks the placement maps
// to another shard are dropped (and counted); owned batches flow gate →
// archive → stats → figures, and on a durable shard every s.every
// admitted batches the archive is synced and a checkpoint saved. An
// archive write or sync failure is fatal and sticky: later batches are
// counted as ingest failures and dropped, and Err reports the cause.
// Safe for concurrent use.
func (s *Shard) Handle(b *wire.Batch) {
	if s.cfg.Placement != nil && s.cfg.Placement.ShardOf(b.Rack) != s.cfg.ID {
		s.m.Misrouted.Inc()
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		s.rec.IngestFailures.Inc()
		return
	}
	verdict := s.gate.admit(b)
	recordStageSpan(s.cfg.Tracer, ptrace.StageEpochGate, b, verdict)
	if verdict != ptrace.VerdictAccept {
		return
	}
	if s.cfg.Archive != nil {
		recordStageSpan(s.cfg.Tracer, ptrace.StageArchiveWrite, b, "")
		if err := s.cfg.Archive.WriteBatch(b); err != nil {
			s.err = fmt.Errorf("collector: archive write: %w", err)
			s.rec.IngestFailures.Inc()
			return
		}
		if s.frames != nil {
			f := s.frames.Frames()
			s.rec.ArchivePassed.Add(f.Passed - s.framesSeen.Passed)
			s.rec.ArchiveEncoded.Add(f.Encoded - s.framesSeen.Encoded)
			s.framesSeen = f
		}
	}
	s.record(b)
	if s.cfg.Figures != nil {
		recordStageSpan(s.cfg.Tracer, ptrace.StageFiguresApply, b, "")
		s.cfg.Figures.Handle(b)
	}
	if s.cfg.Archive == nil {
		return
	}
	s.sinceCkpt++
	s.rec.CheckpointLag.Set(float64(s.sinceCkpt))
	if s.cfg.CheckpointPath != "" && s.sinceCkpt >= s.every {
		if err := s.checkpointLocked(b); err != nil && s.err == nil {
			// A failed save is retried at the next cadence point; the
			// archive tail covers the gap meanwhile.
			s.rec.CheckpointErrors.Inc()
		}
	}
}

// Err returns the sticky fatal error, if any. A non-nil Err means the
// archive stopped accepting batches; the process should exit non-zero.
func (s *Shard) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Publish cuts the shard's accumulator state into a ShardUpdate with
// the next sequence number. It does not take the pipeline lock: the
// figures and stats snapshots are each internally consistent but not a
// single atomic cut across both; the aggregator's fleet state is exact
// once traffic has quiesced (the final publish), which is the property
// the oracle equivalence tests pin down. Not safe for concurrent Publish
// calls with themselves — one publisher goroutine per shard is the
// intended shape.
//
// The update is cumulative but the cut is incremental: LiveFigures.State
// re-snapshots only the series fed since the previous cut (whoever took
// it — Publish or a durable checkpoint) and merges the
// racks that appeared since into its sorted order, so publishing every
// few batches costs the few racks those batches came from plus 8 bytes
// per series, not the shard's whole state. The update shares its
// SeriesStates with earlier and later cuts; see FiguresState for what
// that asks of consumers.
func (s *Shard) Publish() ShardUpdate {
	s.seq++
	s.m.Published.Inc()
	u := ShardUpdate{Shard: s.cfg.ID, Seq: s.seq}
	if s.cfg.Figures != nil {
		u.Figures = s.cfg.Figures.State()
	}
	u.Ingest = s.cfg.Stats.Snapshot()
	return u
}

// ResumeSeq advances the publish sequence to at least seq, so a
// resurrected shard's first update supersedes its dead predecessor's
// in the aggregation tier instead of being discarded as stale. Call
// before the new incarnation's first Publish.
func (s *Shard) ResumeSeq(seq uint64) {
	if seq > s.seq {
		s.seq = seq
	}
}
