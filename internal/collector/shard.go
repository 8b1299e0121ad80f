package collector

import (
	"errors"
	"fmt"

	"mburst/internal/ptrace"
	"mburst/internal/shard"
	"mburst/internal/wire"
)

// This file is the shard-local half of the fleet collection plane. A
// Shard wraps the existing single-collector ingest path — epoch gate,
// optional durable archive (DurableIngest), ingest accounting and the
// live-figures tap — behind one BatchHandler plus a Publish method that
// cuts the shard's accumulator state into a ShardUpdate for the
// Aggregator. The pipeline inside is exactly the one mbcollectd runs
// standalone; sharding changes who dials it, not what it does, which is
// why the fleet merge can be byte-exact.

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
	// Figures is the shard-local live-figures tap; required — its state
	// is what the aggregator merges into fleet figures.
	Figures *LiveFigures
	// Stats is the shard-local ingest accounting; required.
	Stats *IngestStats
	// Archive, when non-nil, makes the shard durable: batches flow
	// through DurableIngest's write-ahead discipline (gate → archive →
	// stats → figures → checkpoint) and the shard can crash and Resume.
	// When nil the shard is volatile: gate → stats → figures.
	Archive ArchiveSink
	// CheckpointPath / Every configure the durable shard's checkpoint
	// cadence; see DurableIngestConfig. Ignored when Archive is nil.
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
	// Tracer, when non-nil, records the shard pipeline's spans.
	Tracer *ptrace.Tracer
}

// Shard is one collector shard: the shard-local ingest pipeline plus
// the publish surface the aggregation tier consumes.
type Shard struct {
	cfg     ShardConfig
	m       ShardMetrics
	handler BatchHandler
	ingest  *DurableIngest // nil when volatile
	seq     uint64         // owned by the single publisher goroutine; see Publish
}

// NewShard validates cfg and builds the pipeline.
func NewShard(cfg ShardConfig) (*Shard, error) {
	if cfg.Figures == nil {
		return nil, errors.New("collector: Shard needs a LiveFigures tap")
	}
	if cfg.Stats == nil {
		return nil, errors.New("collector: Shard needs an IngestStats")
	}
	if cfg.Placement != nil {
		if err := cfg.Placement.Validate(); err != nil {
			return nil, err
		}
		if cfg.ID < 0 || cfg.ID >= cfg.Placement.NumShards() {
			return nil, fmt.Errorf("collector: shard id %d outside placement of %d shards",
				cfg.ID, cfg.Placement.NumShards())
		}
	}
	s := &Shard{cfg: cfg}
	if cfg.Metrics != nil {
		s.m = *cfg.Metrics
	}
	if cfg.Archive != nil {
		ing, err := NewDurableIngest(DurableIngestConfig{
			Archive:        cfg.Archive,
			CheckpointPath: cfg.CheckpointPath,
			Every:          cfg.Every,
			Figures:        cfg.Figures,
			Stats:          cfg.Stats,
			GateMetrics:    cfg.GateMetrics,
			Metrics:        cfg.RecoveryMetrics,
			Tracer:         cfg.Tracer,
		})
		if err != nil {
			return nil, err
		}
		s.ingest = ing
		s.handler = ing.Handle
	} else {
		gate := NewEpochGate(cfg.Stats.Wrap(cfg.Figures.Wrap(nil)), cfg.GateMetrics)
		gate.SetTracer(cfg.Tracer)
		s.handler = gate.Handle
	}
	return s, nil
}

// ID returns the shard's placement index.
func (s *Shard) ID() int { return s.cfg.ID }

// Handle implements BatchHandler. Batches from racks the placement maps
// to another shard are dropped (and counted); owned batches flow into
// the shard-local pipeline. Safe for concurrent use — the inner
// pipeline serializes on its own locks.
func (s *Shard) Handle(b *wire.Batch) {
	if s.cfg.Placement != nil && s.cfg.Placement.ShardOf(b.Rack) != s.cfg.ID {
		s.m.Misrouted.Inc()
		return
	}
	s.handler(b)
}

// Publish cuts the shard's accumulator state into a ShardUpdate with
// the next sequence number. The figures and stats snapshots are each
// internally consistent but not a single atomic cut across both; the
// aggregator's fleet state is exact once traffic has quiesced (the
// final publish), which is the property the oracle equivalence tests
// pin down. Not safe for concurrent Publish calls with themselves —
// one publisher goroutine per shard is the intended shape.
//
// The update is cumulative but the cut is incremental: LiveFigures.State
// re-snapshots only the series fed since the previous cut (whoever took
// it — Publish, CheckpointState or a durable checkpoint), so publishing
// every few batches costs the few racks those batches came from plus one
// flat copy, not the shard's whole state. The update shares slices with
// earlier and later cuts; see FiguresState for what that asks of
// consumers.
func (s *Shard) Publish() ShardUpdate {
	s.seq++
	s.m.Published.Inc()
	return ShardUpdate{
		Shard:   s.cfg.ID,
		Seq:     s.seq,
		Figures: s.cfg.Figures.State(),
		Ingest:  s.cfg.Stats.Snapshot(),
	}
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

// Checkpoint forces a durable checkpoint (clean-shutdown path). A
// volatile shard has nothing to persist and returns nil.
func (s *Shard) Checkpoint() error {
	if s.ingest == nil {
		return nil
	}
	return s.ingest.Checkpoint()
}

// CheckpointState cuts the shard's current state into the persisted
// checkpoint shape without touching disk — the raw material
// ComposeFleetCheckpoint assembles into a fleet-wide checkpoint. The
// archived-batches mark is only present on durable shards.
func (s *Shard) CheckpointState() CheckpointState {
	st := CheckpointState{}
	if s.cfg.Archive != nil {
		st.ArchivedBatches = s.cfg.Archive.Batches()
	}
	fs := s.cfg.Figures.State()
	st.Figures = &fs
	is := s.cfg.Stats.Snapshot()
	st.Ingest = &is
	return st
}

// Resume restores a durable shard from its last checkpoint and replays
// the archive tail; see DurableIngest.Resume. A volatile shard cannot
// resume.
func (s *Shard) Resume(iter func(func(*wire.Batch) error) error) (ResumeReport, error) {
	if s.ingest == nil {
		return ResumeReport{}, errors.New("collector: volatile shard cannot Resume")
	}
	return s.ingest.Resume(iter)
}

// Err returns the durable pipeline's sticky fatal error, if any.
func (s *Shard) Err() error {
	if s.ingest == nil {
		return nil
	}
	return s.ingest.Err()
}

// NewShardFilter wraps next so batches from racks the placement maps to
// a different shard are dropped and counted instead of forwarded — the
// standalone mbcollectd -shard guard, for deployments where agents dial
// through the same placement and a misrouted batch indicates a
// placement-generation mismatch.
func NewShardFilter(pl shard.Placement, self int, m *ShardMetrics, next BatchHandler) (BatchHandler, error) {
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	if self < 0 || self >= pl.NumShards() {
		return nil, fmt.Errorf("collector: shard id %d outside placement of %d shards", self, pl.NumShards())
	}
	var sm ShardMetrics
	if m != nil {
		sm = *m
	}
	return func(b *wire.Batch) {
		if pl.ShardOf(b.Rack) != self {
			sm.Misrouted.Inc()
			return
		}
		if next != nil {
			next(b)
		}
	}, nil
}
