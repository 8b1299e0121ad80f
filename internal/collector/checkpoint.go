package collector

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"mburst/internal/ptrace"
	"mburst/internal/wire"
)

// This file is the collector's durability spine. A durable Shard
// (shard.go) orders every admitted batch through a write-ahead
// discipline — epoch gate, durable archive, then the volatile
// accumulators (ingest stats, live figures) — and periodically persists
// a checkpoint of the volatile state plus the archive high-water mark.
// After a crash, Resume restores the last checkpoint and replays the
// archive tail that landed after it, reconstructing the exact state of a
// collector that never died.
//
// A checkpoint is written in the binary MBC1 encoding (mbc1.go): at 6,000
// series about 0.7 MB and 1.3 ms to encode, 3 ms to decode — cheap enough
// that every checkpoint is a full one and a resume reads exactly one
// file. Checkpoints older binaries wrote as JSON (the struct tags below
// are their schema) still load: LoadCheckpoint tells the two apart by
// content, not by file name.
//
// The ordering is what makes this sound: a batch reaches the archive
// (and the archive is fsynced) before any checkpoint can claim it, so
// the checkpoint's high-water mark never exceeds durable data — except
// when the disk itself lies about fsync (see ResumeReport.Shortfall).

// ArchiveSink is the durable batch log a durable Shard appends to. It is
// satisfied by *trace.ArchiveWriter; an interface because the dependency
// points the other way (internal/trace imports this package).
type ArchiveSink interface {
	// WriteBatch appends one batch. Errors are expected to be sticky.
	WriteBatch(*wire.Batch) error
	// Sync forces everything written so far to stable storage and ends
	// the log's open segment, so the high-water mark a checkpoint records
	// after it is a segment boundary a resume can skip to without
	// decoding what lies below.
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
// checkpoint is bytes from disk: a JSON null in place of a series is no
// series at all; a series whose utilization histogram does not have the
// tap's utilBins bins has lost them or was cut at another resolution, and
// resuming from it would silently restart that histogram empty or change
// its resolution; and a series listed twice is one no collector cut —
// restore would keep one copy and the fleet merge would take the other
// for a second shard's.
func (st CheckpointState) validate() error {
	if st.Figures == nil {
		return nil
	}
	for i, s := range st.Figures.Series {
		if s == nil {
			return fmt.Errorf("series %d is null", i)
		}
		if len(s.UtilHist) != utilBins {
			return fmt.Errorf("series %s has %d util_hist bins, want %d", s.id(), len(s.UtilHist), utilBins)
		}
	}
	series := canonicalOrder(st.Figures.Series)
	for i := 1; i < len(series); i++ {
		if id := series[i].id(); id == series[i-1].id() {
			return fmt.Errorf("series %s is listed twice", id)
		}
	}
	return nil
}

// CheckpointFileName is the shard checkpoint's name inside a durable
// archive directory, as mbcollectd and core.RunFleet lay it out. A
// directory an older binary left resumes after
// `mv checkpoint.json checkpoint.mbc`: the loader goes by content.
const CheckpointFileName = "checkpoint.mbc"

// WriteFileAtomic is the write discipline shared by the shard
// checkpoints and internal/trace's manifests: temp file (path +
// ".tmp", the suffix trace recovery sweeps), fsync, rename, best-effort
// directory fsync. A crash leaves either the old or the new content.
func WriteFileAtomic(path string, data []byte) error {
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

// LoadCheckpoint reads a checkpoint of either encoding: a file that
// starts with CheckpointMagic is MBC1, anything else goes to the JSON
// decoder older binaries' checkpoints need. A missing file is not an
// error: it returns a zero state and ok=false (first boot, or a crash
// before the first checkpoint).
func LoadCheckpoint(path string) (CheckpointState, bool, error) {
	st, _, ok, err := loadCheckpoint(path)
	return st, ok, err
}

// loadCheckpoint is LoadCheckpoint plus the file's size.
func loadCheckpoint(path string) (st CheckpointState, size int, ok bool, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return CheckpointState{}, 0, false, nil
	}
	if err != nil {
		return CheckpointState{}, 0, false, err
	}
	if bytes.HasPrefix(data, []byte(CheckpointMagic)) {
		st, err = decodeMBC1(data)
	} else {
		err = json.Unmarshal(data, &st)
	}
	if err != nil {
		return CheckpointState{}, 0, false, fmt.Errorf("collector: decoding checkpoint %s: %w", path, err)
	}
	if err := st.validate(); err != nil {
		return CheckpointState{}, 0, false, fmt.Errorf("collector: checkpoint %s: %w", path, err)
	}
	return st, len(data), true, nil
}

// DefaultCheckpointEvery is the checkpoint cadence in admitted batches
// when ShardConfig.Every is zero.
const DefaultCheckpointEvery = 256

// Resume restores a durable shard from the last checkpoint and replays
// the archive tail written after it. iter must stream the archive's
// batches in write order (trace.IterArchive wrapped in a closure fits)
// and must honour wire.SkipTo: on the first batch, Resume asks to be
// handed next the batch after the checkpoint's mark, so an iterator that
// can skip reads only the tail. One that does not returns the SkipTo as
// its error, and Resume fails with it rather than replaying the wrong
// batches. Call once, before Handle sees traffic. A volatile shard cannot
// resume.
func (s *Shard) Resume(iter func(func(*wire.Batch) error) error) (ResumeReport, error) {
	if s.cfg.Archive == nil {
		return ResumeReport{}, errors.New("collector: volatile shard cannot Resume")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	start := s.rec.now()
	defer func() { s.rec.ResumeSeconds.Set(s.rec.since(start)) }()
	var rep ResumeReport
	if s.cfg.CheckpointPath != "" {
		st, size, ok, err := loadCheckpoint(s.cfg.CheckpointPath)
		if err != nil {
			return rep, err
		}
		if ok {
			s.rec.CheckpointLoadSeconds.Set(s.rec.since(start))
			s.rec.CheckpointBytes.Set(float64(size))
			rep.HadCheckpoint = true
			rep.CheckpointBatches = st.ArchivedBatches
			s.gate.RestoreState(st.Gate)
			if s.cfg.Figures != nil && st.Figures != nil {
				s.cfg.Figures.RestoreState(*st.Figures)
			}
			if st.Ingest != nil {
				s.cfg.Stats.Restore(*st.Ingest)
			}
		}
	}
	rep.ArchiveBatches = s.cfg.Archive.Batches()
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
				// Already inside the checkpoint: skip past all of it.
				if seen == 1 && rep.CheckpointBatches > 1 {
					seen = rep.CheckpointBatches
					return wire.SkipTo(seen)
				}
				return nil
			}
			// Same order as Handle, minus the archive write: these batches
			// are already durable.
			s.gate.admit(b)
			recordStageSpan(s.cfg.Tracer, ptrace.StageRecover, b, "")
			s.record(b)
			if s.cfg.Figures != nil {
				recordStageSpan(s.cfg.Tracer, ptrace.StageFiguresApply, b, "")
				s.cfg.Figures.Handle(b)
			}
			rep.Replayed++
			return nil
		}); err != nil {
			return rep, err
		}
	}
	s.rec.ReplayedBatches.Add(rep.Replayed)
	s.sinceCkpt = int(rep.Replayed)
	s.rec.CheckpointLag.Set(float64(s.sinceCkpt))
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

// Checkpoint forces a checkpoint now — the clean-shutdown path. It
// syncs the archive first; a sync failure is fatal (the data is not
// durable) and is returned. A volatile shard has nothing to persist and
// returns nil.
func (s *Shard) Checkpoint() error {
	if s.cfg.Archive == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if s.cfg.CheckpointPath == "" {
		return s.syncLocked()
	}
	if err := s.checkpointLocked(nil); err != nil {
		s.rec.CheckpointErrors.Inc()
		return err
	}
	return nil
}

// cutLocked is the one builder of a CheckpointState from live state: the
// archive high-water mark, the gate horizons and a snapshot of every
// accumulator. Caller holds s.mu, which is what makes the cut
// consistent.
func (s *Shard) cutLocked() CheckpointState {
	st := CheckpointState{Gate: s.gate.State()}
	if s.cfg.Archive != nil {
		st.ArchivedBatches = s.cfg.Archive.Batches()
	}
	if s.cfg.Figures != nil {
		fs := s.cfg.Figures.State()
		st.Figures = &fs
	}
	is := s.cfg.Stats.Snapshot()
	st.Ingest = &is
	return st
}

// syncLocked forces the archive to stable storage, latching a failure
// as the sticky fatal error.
func (s *Shard) syncLocked() error {
	if err := s.cfg.Archive.Sync(); err != nil {
		s.err = fmt.Errorf("collector: archive sync: %w", err)
		return s.err
	}
	return nil
}

// checkpointLocked syncs the archive and saves a consistent cut of the
// volatile state, encoded into the buffer the shard keeps for it: past
// the first, a checkpoint allocates its cut and nothing else. b, when
// non-nil, anchors the collector.checkpoint span. Caller holds s.mu.
func (s *Shard) checkpointLocked(b *wire.Batch) error {
	if err := s.syncLocked(); err != nil {
		return err
	}
	start := s.rec.now()
	st := s.cutLocked()
	s.ckptBuf = appendCheckpoint(s.ckptBuf[:0], &st)
	if err := WriteFileAtomic(s.cfg.CheckpointPath, s.ckptBuf); err != nil {
		return err
	}
	s.rec.CheckpointSeconds.Observe(s.rec.since(start))
	s.rec.CheckpointBytes.Set(float64(len(s.ckptBuf)))
	s.sinceCkpt = 0
	s.rec.Checkpoints.Inc()
	s.rec.CheckpointLag.Set(0)
	if b != nil {
		recordStageSpan(s.cfg.Tracer, ptrace.StageCheckpoint, b, "")
	}
	return nil
}
