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
// A checkpoint is written in the binary MBC1 encoding (mbc1.go): at 5,000
// series about 0.83 MB, 0.7 ms to encode and 6–7 ms for a resume to read
// it and decode it straight into the taps (BenchmarkRestoreCheckpoint) on
// a 2-vCPU Xeon — cheap enough that every checkpoint is a full one and a
// resume reads exactly one file. Checkpoints older binaries wrote as
// JSON (the struct tags below are their schema) still load:
// LoadCheckpoint tells the two apart by content, not by file name.
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

// histBins is the decoder's verdict on one series' histogram. A series
// whose utilization histogram does not have the tap's utilBins bins has
// lost them or was cut at another resolution, and resuming from it would
// silently restart that histogram empty or change its resolution.
func histBins(s *SeriesState) error {
	if len(s.UtilHist) != utilBins {
		return fmt.Errorf("series %s has %d util_hist bins, want %d", s.id(), len(s.UtilHist), utilBins)
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
// starts with CheckpointMagic is MBC1, anything else is the JSON older
// binaries wrote. It decodes the file as a resume does — into a gate and
// a figures tap of its own, with the per-rack counts kept as listed — and
// returns their cut, so there is one decoder, and what it accepts is what
// a resume installs. A missing file is not an error: it returns a zero
// state and ok=false (first boot, or a crash before the first checkpoint).
func LoadCheckpoint(path string) (CheckpointState, bool, error) {
	c, ok, err := openCheckpoint(path)
	if !ok || err != nil {
		return CheckpointState{}, false, err
	}
	st, err := c.state()
	if err != nil {
		return CheckpointState{}, false, err
	}
	return st, true, nil
}

// openedCheckpoint is a checkpoint file decoded as far as its archive
// high-water mark, which is all a resume needs to start reading the
// archive tail: the MBC1 checksum and first field. restore decodes the
// rest.
type openedCheckpoint struct {
	path string
	size int        // the file's length
	mark uint64     // archived_batches
	r    mbc1Reader // the MBC1 body, past archived_batches
}

// openCheckpoint reads path. A missing file returns ok=false and no
// error. A legacy JSON file is re-encoded as MBC1 first (legacyJSON).
func openCheckpoint(path string) (c openedCheckpoint, ok bool, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return openedCheckpoint{}, false, nil
	}
	if err != nil {
		return openedCheckpoint{}, false, err
	}
	c = openedCheckpoint{path: path, size: len(data)}
	if !bytes.HasPrefix(data, []byte(CheckpointMagic)) {
		if data, err = legacyJSON(path, data); err != nil {
			return openedCheckpoint{}, false, err
		}
	}
	if c.r, err = openMBC1(data); err == nil {
		c.mark = c.r.uvarint()
		err = c.r.err
	}
	if err != nil {
		return openedCheckpoint{}, false, fmt.Errorf("collector: decoding checkpoint %s: %w", path, err)
	}
	return c, true, nil
}

// legacyJSON re-encodes a checkpoint an older binary wrote as JSON (the
// struct tags on CheckpointState are its schema) in MBC1, for the MBC1
// decoder to read. Those binaries cut what this one cuts, in the same
// order, so a file one of them wrote transcodes to what this one would
// have written. A JSON null in place of a series is no series at all, and
// has no MBC1 encoding.
func legacyJSON(path string, data []byte) ([]byte, error) {
	var st CheckpointState
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("collector: decoding checkpoint %s: %w", path, err)
	}
	if st.Figures != nil {
		for i, s := range st.Figures.Series {
			if s == nil {
				return nil, fmt.Errorf("collector: checkpoint %s: series %d is null", path, i)
			}
		}
	}
	return appendCheckpoint(nil, &st), nil
}

// restore decodes the rest of the checkpoint straight into a shard's
// taps — the gate and, when they are not nil, the ingest stats and the
// figures tap — and returns the decoded body, whose ingest and figures
// flags say which sections the file holds; with no stats tap it keeps the
// per-rack counts as the sorted list a cut holds. The body is never built
// as a CheckpointState: it decodes in the taps' own shapes (restoreBody),
// and is installed only once all of it has decoded and every entry is one
// a cut could have made. On an error every tap is left as it was.
func (c *openedCheckpoint) restore(gate *EpochGate, stats *IngestStats, figures *LiveFigures) (restoredBody, error) {
	b := restoredBody{cut: stats == nil}
	if err := c.r.restoreBody(&b); err != nil {
		return restoredBody{}, fmt.Errorf("collector: decoding checkpoint %s: %w", c.path, err)
	}
	if b.invalid != nil {
		return restoredBody{}, fmt.Errorf("collector: checkpoint %s: %w", c.path, b.invalid)
	}
	gate.install(b.gate)
	if figures != nil && b.figures {
		figures.install(b.figuresSamples, b.series)
	}
	if stats != nil && b.ingest {
		stats.install(b.batches, b.samples, b.lastSampleNanos, b.perRack)
	}
	return b, nil
}

// state restores the rest of the checkpoint into taps of its own, zero
// ones, and cuts them, but for the per-rack counts: those decode as the
// list a cut holds. A section the file does not hold stays nil.
func (c *openedCheckpoint) state() (CheckpointState, error) {
	var gate EpochGate
	var figures LiveFigures
	b, err := c.restore(&gate, nil, &figures)
	if err != nil {
		return CheckpointState{}, err
	}
	st := CheckpointState{ArchivedBatches: c.mark}
	if g := gate.State(); len(g) > 0 {
		st.Gate = g
	}
	if b.ingest {
		st.Ingest = &Snapshot{Batches: b.batches, Samples: b.samples, PerRack: b.perRackCut, LastSampleNanos: b.lastSampleNanos}
	}
	if b.figures {
		fs := figures.State()
		st.Figures = &fs
	}
	return st, nil
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
//
// The checkpoint and the archive tail are independent inputs, so they
// are read side by side: the checkpoint's decode, validation and restore
// — one step, which decodes straight into the taps —
// run on a goroutine of their own, from the moment its mark is known,
// while iter reads the tail on the calling goroutine. Tail batches read
// before the restore is done are copied aside, at most a checkpoint
// interval of them (iter then waits for the restore), and applied in
// write order once it is; the rest are applied as iter passes them. A
// checkpoint that fails to load fails iter's next batch and wins over
// any error of iter's.
func (s *Shard) Resume(iter func(func(*wire.Batch) error) error) (ResumeReport, error) {
	if s.cfg.Archive == nil {
		return ResumeReport{}, errors.New("collector: volatile shard cannot Resume")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	start := s.rec.now()
	defer func() { s.rec.ResumeSeconds.Set(s.rec.since(start)) }()
	var rep ResumeReport
	var ckpt openedCheckpoint
	if s.cfg.CheckpointPath != "" {
		var err error
		if ckpt, rep.HadCheckpoint, err = openCheckpoint(s.cfg.CheckpointPath); err != nil {
			return ResumeReport{}, err
		}
		rep.CheckpointBatches = ckpt.mark
	}
	rep.ArchiveBatches = s.cfg.Archive.Batches()
	var restored chan error // the restore's result; nil once joined
	var loadS float64
	if rep.HadCheckpoint {
		restored = make(chan error, 1)
		go func() {
			// The caller holds s.mu for this goroutine and touches none of
			// what it restores until it has joined.
			_, err := ckpt.restore(s.gate, s.cfg.Stats, s.cfg.Figures)
			if err == nil {
				loadS = s.rec.since(start)
			}
			restored <- err
		}()
	}
	var ckptErr error
	var queued []*wire.Batch // tail read before the restore was done
	apply := func(b *wire.Batch) {
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
	}
	// join reports whether the restore is done, waiting for it if wait
	// is set. The first time it is, a restored checkpoint's load is
	// recorded and what was queued is applied.
	join := func(wait bool) bool {
		if restored == nil {
			return true
		}
		if wait {
			ckptErr = <-restored
		} else {
			select {
			case ckptErr = <-restored:
			default:
				return false
			}
		}
		restored = nil
		if ckptErr == nil {
			s.rec.CheckpointLoadSeconds.Set(loadS)
			s.rec.CheckpointBytes.Set(float64(ckpt.size))
			for _, b := range queued {
				apply(b)
			}
		}
		queued = nil
		return true
	}
	if rep.CheckpointBatches > rep.ArchiveBatches {
		// The checkpoint covers batches the archive no longer holds: the
		// storage layer acknowledged a sync it did not perform. The
		// checkpointed accumulators already contain those batches, so
		// nothing is replayed; the shortfall is reported, not hidden.
		if join(true); ckptErr != nil {
			return ResumeReport{}, ckptErr
		}
		rep.Shortfall = rep.CheckpointBatches - rep.ArchiveBatches
		return rep, nil
	}
	var iterErr error
	if iter != nil {
		// The queue holds the whole tail a crash between two checkpoints
		// leaves, which the cadence bounds.
		depth := min(uint64(s.every), rep.ArchiveBatches-rep.CheckpointBatches)
		var seen uint64
		iterErr = iter(func(b *wire.Batch) error {
			seen++
			if seen <= rep.CheckpointBatches {
				// Already inside the checkpoint: skip past all of it.
				if seen == 1 && rep.CheckpointBatches > 1 {
					seen = rep.CheckpointBatches
					return wire.SkipTo(seen)
				}
				return nil
			}
			if !join(uint64(len(queued)) >= depth) {
				// iter may reuse b: queue a copy.
				queued = append(queued, &wire.Batch{Rack: b.Rack, Epoch: b.Epoch,
					Samples: append([]wire.Sample(nil), b.Samples...)})
				return nil
			}
			if ckptErr != nil {
				return ckptErr
			}
			apply(b)
			return nil
		})
	}
	if join(true); ckptErr != nil {
		return ResumeReport{}, ckptErr
	}
	if iterErr != nil {
		return rep, iterErr
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
