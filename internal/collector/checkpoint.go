package collector

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"mburst/internal/ptrace"
	"mburst/internal/wire"
)

// This file is the collector's durability spine. DurableIngest orders
// every admitted batch through a write-ahead discipline — epoch gate,
// durable archive, then the volatile accumulators (ingest stats, live
// figures) — and periodically persists a checkpoint of the volatile
// state plus the archive high-water mark. After a crash, Resume restores
// the last checkpoint and replays the archive tail that landed after it,
// reconstructing the exact state of a collector that never died.
//
// The ordering is what makes this sound: a batch reaches the archive
// (and the archive is fsynced) before any checkpoint can claim it, so
// the checkpoint's high-water mark never exceeds durable data — except
// when the disk itself lies about fsync (see ResumeReport.Shortfall).

// ArchiveSink is the durable batch log DurableIngest appends to. It is
// satisfied by *trace.ArchiveWriter; an interface because the dependency
// points the other way (internal/trace imports this package).
type ArchiveSink interface {
	// WriteBatch appends one batch. Errors are expected to be sticky.
	WriteBatch(*wire.Batch) error
	// Sync forces everything written so far to stable storage.
	Sync() error
	// Batches returns the total batches in the log, including any
	// recovered from a previous incarnation.
	Batches() uint64
}

// CheckpointState is the persisted collector state: the archive
// high-water mark plus snapshots of every volatile accumulator.
type CheckpointState struct {
	// ArchivedBatches is the archive length this checkpoint covers:
	// batches beyond it are replayed from the archive at resume.
	ArchivedBatches uint64           `json:"archived_batches"`
	Gate            []RackEpochState `json:"gate,omitempty"`
	Figures         *FiguresState    `json:"figures,omitempty"`
	Ingest          *Snapshot        `json:"ingest,omitempty"`
}

// validate rejects a state RestoreState could not faithfully rebuild. A
// checkpoint is bytes from disk: a series whose utilization histogram is
// missing has lost its bins, and resuming from it would silently restart
// that histogram empty.
func (st CheckpointState) validate() error {
	if st.Figures == nil {
		return nil
	}
	for _, s := range st.Figures.Series {
		if len(s.UtilHist) == 0 {
			return fmt.Errorf("series %s has no util_hist", s.id())
		}
	}
	return nil
}

// SaveCheckpoint writes st to path atomically: temp file, fsync, rename,
// directory fsync. A crash mid-save leaves the previous checkpoint
// intact. The file is one line of compact JSON (`jq . <path>` to read
// it): indentation tripled both the bytes fsynced and the encode time,
// and the encode runs under the ingest lock.
func SaveCheckpoint(path string, st CheckpointState) error {
	data, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("collector: encoding checkpoint: %w", err)
	}
	return writeFileAtomic(path, append(data, '\n'))
}

// writeFileAtomic is the checkpoint write discipline shared by the
// per-shard and fleet checkpoints: temp file, fsync, rename, best-effort
// directory fsync.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	// Directory sync is best-effort: the rename is already on disk on
	// filesystems that order metadata, and some platforms reject fsync on
	// directories.
	if d, derr := os.Open(filepath.Dir(path)); derr == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// LoadCheckpoint reads a checkpoint. A missing file is not an error: it
// returns a zero state and ok=false (first boot, or a crash before the
// first checkpoint).
func LoadCheckpoint(path string) (CheckpointState, bool, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return CheckpointState{}, false, nil
	}
	if err != nil {
		return CheckpointState{}, false, err
	}
	var st CheckpointState
	if err := json.Unmarshal(data, &st); err != nil {
		return CheckpointState{}, false, fmt.Errorf("collector: decoding checkpoint %s: %w", path, err)
	}
	if err := st.validate(); err != nil {
		return CheckpointState{}, false, fmt.Errorf("collector: checkpoint %s: %w", path, err)
	}
	return st, true, nil
}

// DefaultCheckpointEvery is the checkpoint cadence in admitted batches
// when DurableIngestConfig.Every is zero.
const DefaultCheckpointEvery = 256

// DurableIngestConfig assembles a DurableIngest.
type DurableIngestConfig struct {
	// Archive is the durable batch log; required.
	Archive ArchiveSink
	// CheckpointPath is where checkpoints are saved; empty disables
	// periodic checkpointing (Resume then replays the whole archive).
	CheckpointPath string
	// Every is the checkpoint cadence in admitted batches; <= 0 selects
	// DefaultCheckpointEvery.
	Every int
	// Figures, when non-nil, receives every admitted batch and is
	// checkpointed/restored alongside the archive mark.
	Figures *LiveFigures
	// Stats, when non-nil, accounts every admitted batch and is
	// checkpointed/restored alongside the archive mark.
	Stats *IngestStats
	// GateMetrics feeds the embedded epoch gate's drop counters; may be
	// nil.
	GateMetrics *ServerMetrics
	// Metrics, when non-nil, receives durability telemetry.
	Metrics *RecoveryMetrics
	// Tracer, when non-nil, records epoch.gate, archive.write,
	// collector.checkpoint, and collector.recover spans.
	Tracer *ptrace.Tracer
}

// DurableIngest is the crash-safe ingest pipeline: a BatchHandler that
// gates, archives, accounts, and periodically checkpoints under one
// lock, so the persisted state is always a consistent cut.
type DurableIngest struct {
	cfg    DurableIngestConfig
	gate   *EpochGate
	m      RecoveryMetrics
	record BatchHandler // cfg.Stats accounting, nil when absent

	mu        sync.Mutex
	err       error // sticky fatal: the archive can no longer accept writes
	every     int
	sinceCkpt int
}

// NewDurableIngest validates cfg and builds the pipeline.
func NewDurableIngest(cfg DurableIngestConfig) (*DurableIngest, error) {
	if cfg.Archive == nil {
		return nil, fmt.Errorf("collector: DurableIngest needs an ArchiveSink")
	}
	d := &DurableIngest{
		cfg:   cfg,
		gate:  NewEpochGate(func(*wire.Batch) {}, cfg.GateMetrics),
		every: cfg.Every,
	}
	d.gate.SetTracer(cfg.Tracer)
	if d.every <= 0 {
		d.every = DefaultCheckpointEvery
	}
	if cfg.Metrics != nil {
		d.m = *cfg.Metrics
	}
	if cfg.Stats != nil {
		d.record = cfg.Stats.Wrap(nil)
	}
	return d, nil
}

// Resume restores the pipeline from the last checkpoint and replays the
// archive tail written after it. iter must stream the archive's batches
// in write order (trace.IterArchive wrapped in a closure fits). Call
// once, before Handle sees traffic.
func (d *DurableIngest) Resume(iter func(func(*wire.Batch) error) error) (ResumeReport, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var rep ResumeReport
	if d.cfg.CheckpointPath != "" {
		st, ok, err := LoadCheckpoint(d.cfg.CheckpointPath)
		if err != nil {
			return rep, err
		}
		if ok {
			rep.HadCheckpoint = true
			rep.CheckpointBatches = st.ArchivedBatches
			d.gate.RestoreState(st.Gate)
			if d.cfg.Figures != nil && st.Figures != nil {
				d.cfg.Figures.RestoreState(*st.Figures)
			}
			if d.cfg.Stats != nil && st.Ingest != nil {
				d.cfg.Stats.Restore(*st.Ingest)
			}
		}
	}
	rep.ArchiveBatches = d.cfg.Archive.Batches()
	if rep.CheckpointBatches > rep.ArchiveBatches {
		// The checkpoint covers batches the archive no longer holds: the
		// storage layer acknowledged a sync it did not perform. The
		// checkpointed accumulators already contain those batches, so
		// nothing is replayed; the shortfall is reported, not hidden.
		rep.Shortfall = rep.CheckpointBatches - rep.ArchiveBatches
		return rep, nil
	}
	var seen uint64
	if iter != nil {
		if err := iter(func(b *wire.Batch) error {
			seen++
			if seen <= rep.CheckpointBatches {
				return nil // already inside the checkpoint
			}
			// Same order as Handle, minus the archive write: these batches
			// are already durable.
			d.gate.admit(b)
			recordStageSpan(d.cfg.Tracer, ptrace.StageRecover, b)
			if d.record != nil {
				d.record(b)
			}
			if d.cfg.Figures != nil {
				d.cfg.Figures.Handle(b)
			}
			rep.Replayed++
			return nil
		}); err != nil {
			return rep, err
		}
	}
	d.m.ReplayedBatches.Add(rep.Replayed)
	d.sinceCkpt = int(rep.Replayed)
	d.m.CheckpointLag.Set(float64(d.sinceCkpt))
	return rep, nil
}

// ResumeReport describes what a Resume found and did.
type ResumeReport struct {
	// HadCheckpoint reports whether a checkpoint file was restored.
	HadCheckpoint bool `json:"had_checkpoint"`
	// CheckpointBatches is the archive high-water mark the checkpoint
	// recorded.
	CheckpointBatches uint64 `json:"checkpoint_batches"`
	// ArchiveBatches is how many batches the (recovered) archive holds.
	ArchiveBatches uint64 `json:"archive_batches"`
	// Replayed is how many archived batches were re-applied to the
	// restored accumulators.
	Replayed uint64 `json:"replayed"`
	// Shortfall counts batches the checkpoint covers but the archive lost
	// (a storage layer that acknowledged fsync without persisting).
	Shortfall uint64 `json:"shortfall,omitempty"`
}

// Handle implements BatchHandler. Batches flow gate → archive → stats →
// figures; every d.every admitted batches the archive is synced and a
// checkpoint saved. An archive write or sync failure is fatal and
// sticky: later batches are counted as ingest failures and dropped, and
// Err reports the cause.
func (d *DurableIngest) Handle(b *wire.Batch) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err != nil {
		d.m.IngestFailures.Inc()
		return
	}
	verdict := d.gate.admit(b)
	recordGateSpan(d.cfg.Tracer, b, verdict)
	if verdict != ptrace.VerdictAccept {
		return
	}
	recordStageSpan(d.cfg.Tracer, ptrace.StageArchiveWrite, b)
	if err := d.cfg.Archive.WriteBatch(b); err != nil {
		d.err = fmt.Errorf("collector: archive write: %w", err)
		d.m.IngestFailures.Inc()
		return
	}
	if d.record != nil {
		d.record(b)
	}
	if d.cfg.Figures != nil {
		d.cfg.Figures.Handle(b)
	}
	d.sinceCkpt++
	d.m.CheckpointLag.Set(float64(d.sinceCkpt))
	if d.cfg.CheckpointPath != "" && d.sinceCkpt >= d.every {
		if err := d.checkpointLocked(b); err != nil && d.err == nil {
			// A failed save is retried at the next cadence point; the
			// archive tail covers the gap meanwhile.
			d.m.CheckpointErrors.Inc()
		}
	}
}

// Err returns the sticky fatal error, if any. A non-nil Err means the
// archive stopped accepting batches; the process should exit non-zero.
func (d *DurableIngest) Err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err
}

// Checkpoint forces a checkpoint now — the clean-shutdown path. It
// syncs the archive first; a sync failure is fatal (the data is not
// durable) and is returned.
func (d *DurableIngest) Checkpoint() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err != nil {
		return d.err
	}
	if d.cfg.CheckpointPath == "" {
		return d.syncLocked()
	}
	if err := d.checkpointLocked(nil); err != nil {
		d.m.CheckpointErrors.Inc()
		return err
	}
	return nil
}

// syncLocked forces the archive to stable storage, latching a failure
// as the sticky fatal error.
func (d *DurableIngest) syncLocked() error {
	if err := d.cfg.Archive.Sync(); err != nil {
		d.err = fmt.Errorf("collector: archive sync: %w", err)
		return d.err
	}
	return nil
}

// checkpointLocked syncs the archive and saves a consistent cut of the
// volatile state. b, when non-nil, anchors the collector.checkpoint
// span. Caller holds d.mu.
func (d *DurableIngest) checkpointLocked(b *wire.Batch) error {
	if err := d.syncLocked(); err != nil {
		return err
	}
	st := CheckpointState{
		ArchivedBatches: d.cfg.Archive.Batches(),
		Gate:            d.gate.State(),
	}
	if d.cfg.Figures != nil {
		fs := d.cfg.Figures.State()
		st.Figures = &fs
	}
	if d.cfg.Stats != nil {
		is := d.cfg.Stats.Snapshot()
		st.Ingest = &is
	}
	if err := SaveCheckpoint(d.cfg.CheckpointPath, st); err != nil {
		return err
	}
	d.sinceCkpt = 0
	d.m.Checkpoints.Inc()
	d.m.CheckpointLag.Set(0)
	if b != nil {
		recordStageSpan(d.cfg.Tracer, ptrace.StageCheckpoint, b)
	}
	return nil
}
