package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"mburst/internal/wire"
)

// The archive is the one on-disk layout of sample data. It is segmented
// because the MBW3 codec carries delta chains across batches written by
// one writer — appending to an existing stream with a fresh writer would
// silently corrupt decoding — so every segment decodes standalone:
//
//	<dir>/archive.json        — manifest: wire format + sealed segments
//	<dir>/seg_000001.mbw      — sealed (fsynced, renamed, manifest-listed)
//	<dir>/seg_000002.open     — a collector incarnation still appending
//	<dir>/seg_000003.mbw.tmp  — a recording's window still being written
//
// mbcollectd's archive is the durable, append-only record of everything
// it admitted, the write-ahead log the checkpoint/restore path replays. A
// checkpoint ends the open segment (Sync seals it), so every checkpoint
// mark is a segment boundary: a resume skips the sealed segments below the
// mark unopened (IterArchive honours wire.SkipTo) and decodes only those
// written since. The one .open segment therefore holds only batches
// admitted since the last checkpoint; a crash leaves at worst a torn tail
// on it, and RecoverArchive truncates that to the decodable prefix and
// seals it. A recorded campaign (Writer, trace.go) writes window k as
// segment k+1 under TempSuffix: a window is whole or absent, so
// RecoverArchive deletes a partial one instead.

// ArchiveManifestName is the archive manifest file name.
const ArchiveManifestName = "archive.json"

// SegmentInfo records one sealed archive segment.
type SegmentInfo struct {
	Seq     int    `json:"seq"`
	Batches uint64 `json:"batches"`
	Samples uint64 `json:"samples"`
	Bytes   int64  `json:"bytes"`
}

// ArchiveManifest is the on-disk shape of ArchiveManifestName.
type ArchiveManifest struct {
	// Format names the wire format the archive was created in
	// (informative; readers dispatch on batch magic).
	Format string `json:"wire_format,omitempty"`
	// Segments lists sealed segments in ascending Seq order.
	Segments []SegmentInfo `json:"segments"`
}

func segName(seq int) string     { return fmt.Sprintf("seg_%06d.mbw", seq) }
func segOpenName(seq int) string { return fmt.Sprintf("seg_%06d.open", seq) }

// ArchiveConfig parameterizes an archive writer.
type ArchiveConfig struct {
	// Format must be zero or wire.FormatMBW3, the one format segments are
	// written in (see wire.NewWriterFormat).
	Format wire.Format
	// SyncEvery fsyncs the open segment after this many batches
	// (default 64). 1 makes every admitted batch durable before the
	// write returns — what the crash soak runs with.
	SyncEvery int
	// Open creates segment files; nil falls back to os.Create. It is
	// the archive's one disk hook: fault.WriteChaos.Wrap decorates it to
	// tear and shorten writes, and the archive syncs a file it returns
	// when the file has a Sync method.
	Open Opener
}

func (cfg ArchiveConfig) withDefaults() ArchiveConfig {
	if cfg.SyncEvery <= 0 {
		cfg.SyncEvery = 64
	}
	if cfg.Open == nil {
		cfg.Open = defaultOpener
	}
	return cfg
}

// ArchiveWriter appends batches to a segmented archive. It is not
// concurrency-safe; the collector serializes writes through its ingest
// mutex. After a write error the writer latches failed: the segment may
// hold a torn frame, so accepting more batches would corrupt the log.
type ArchiveWriter struct {
	dir string
	cfg ArchiveConfig
	man ArchiveManifest

	seq        int
	openPath   string         // the open segment's file until seal renames it
	f          io.WriteCloser // nil while no segment is open
	cw         countWriter
	bw         *wire.Writer // kept across segments, Reset for each
	segBatches uint64
	segSamples uint64

	total     uint64
	sinceSync int
	closed    bool
	err       error
}

// countWriter counts the bytes the encoder handed on for the manifest. It
// sits above the file Open returned, so it records what the writer
// believes the segment holds: a storage layer that drops bytes while reporting success
// leaves the file shorter than its manifest entry, and recovery rescans
// it instead of trusting a segment with a torn frame inside.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func loadArchiveManifest(dir string) (ArchiveManifest, error) {
	var man ArchiveManifest
	data, err := os.ReadFile(filepath.Join(dir, ArchiveManifestName))
	if err != nil {
		return man, fmt.Errorf("trace: %s holds no archive: %w", dir, err)
	}
	if err := json.Unmarshal(data, &man); err != nil {
		return man, fmt.Errorf("trace: decoding archive manifest: %w", err)
	}
	return man, nil
}

func saveArchiveManifest(dir string, man ArchiveManifest) error {
	sort.Slice(man.Segments, func(i, j int) bool { return man.Segments[i].Seq < man.Segments[j].Seq })
	return writeJSON(filepath.Join(dir, ArchiveManifestName), &man)
}

// newArchive initializes an empty archive directory — a manifest and no
// segment yet. It refuses a directory that already holds an archive.
func newArchive(dir string, cfg ArchiveConfig) (*ArchiveWriter, error) {
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if _, err := os.Stat(filepath.Join(dir, ArchiveManifestName)); err == nil {
		return nil, fmt.Errorf("trace: %s already holds an archive", dir)
	}
	man := ArchiveManifest{Format: wire.FormatMBW3.String()}
	if err := saveArchiveManifest(dir, man); err != nil {
		return nil, err
	}
	return &ArchiveWriter{dir: dir, cfg: cfg, man: man}, nil
}

// CreateArchive initializes an empty archive directory and opens its
// first segment. Like Create, it refuses a directory that already holds
// an archive.
func CreateArchive(dir string, cfg ArchiveConfig) (*ArchiveWriter, error) {
	w, err := newArchive(dir, cfg)
	if err != nil {
		return nil, err
	}
	if err := w.openSegment(1, segOpenName(1)); err != nil {
		return nil, err
	}
	return w, nil
}

// ResumeArchive recovers an existing archive (sealing any crashed open
// segment at its decodable prefix) and opens a fresh segment for this
// writer incarnation. The returned recovery report says what survived.
func ResumeArchive(dir string, cfg ArchiveConfig) (*ArchiveWriter, *ArchiveRecovery, error) {
	cfg = cfg.withDefaults()
	rec, err := RecoverArchive(dir)
	if err != nil {
		return nil, nil, err
	}
	man, err := loadArchiveManifest(dir)
	if err != nil {
		return nil, nil, err
	}
	next := 1
	for _, s := range man.Segments {
		if s.Seq >= next {
			next = s.Seq + 1
		}
	}
	w := &ArchiveWriter{dir: dir, cfg: cfg, man: man, total: rec.Batches}
	if err := w.openSegment(next, segOpenName(next)); err != nil {
		return nil, nil, err
	}
	return w, rec, nil
}

// openSegment starts segment seq in the file called name until seal
// renames it: segOpenName(seq), or segName(seq)+TempSuffix for a window.
func (w *ArchiveWriter) openSegment(seq int, name string) error {
	path := filepath.Join(w.dir, name)
	f, err := w.cfg.Open(path)
	if err != nil {
		return fmt.Errorf("trace: opening segment %d: %w", seq, err)
	}
	w.cw = countWriter{w: f}
	if w.bw == nil {
		if w.bw, err = wire.NewWriterFormat(&w.cw, w.cfg.Format); err != nil {
			f.Close()
			return err
		}
	} else {
		// A fresh delta chain: every segment decodes standalone.
		w.bw.Reset(&w.cw)
	}
	w.seq, w.openPath, w.f = seq, path, f
	w.segBatches, w.segSamples, w.sinceSync = 0, 0, 0
	return nil
}

// WriteBatch appends one batch, opening a segment when none is open (the
// one before was sealed by Sync) and fsyncing per the configured cadence.
// On error the writer is failed for good.
func (w *ArchiveWriter) WriteBatch(b *wire.Batch) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return errors.New("trace: archive closed")
	}
	if w.f == nil {
		if err := w.openSegment(w.seq+1, segOpenName(w.seq+1)); err != nil {
			w.err = err
			return err
		}
	}
	if err := w.bw.WriteBatch(b); err != nil {
		w.err = fmt.Errorf("trace: archive segment %d: %w", w.seq, err)
		return w.err
	}
	w.total++
	w.segBatches++
	w.segSamples += uint64(len(b.Samples))
	w.sinceSync++
	if w.sinceSync >= w.cfg.SyncEvery {
		return w.fsync()
	}
	return nil
}

// Sync makes everything written so far durable (when the segment file
// supports fsync) and, when the open segment holds a batch, ends it:
// sealed and listed in the manifest, with the next write opening a new
// one. The checkpointer calls this before persisting a high-water mark,
// so the checkpoint never claims batches the disk lost and the mark it
// records is a segment boundary — what lets a resume skip every segment
// below it unopened.
func (w *ArchiveWriter) Sync() error {
	if w.err != nil {
		return w.err
	}
	if w.closed || w.f == nil {
		return nil
	}
	if w.segBatches == 0 {
		return w.fsync()
	}
	if err := w.seal(); err != nil {
		w.err = err
		return err
	}
	return nil
}

// fsync makes the open segment durable without ending it: the SyncEvery
// cadence.
func (w *ArchiveWriter) fsync() error {
	if err := maybeSync(w.f); err != nil {
		w.err = fmt.Errorf("trace: syncing segment %d: %w", w.seq, err)
		return w.err
	}
	w.sinceSync = 0
	return nil
}

// Frames returns how this writer wrote its frames, across its segments:
// passed through as received, or encoded (see wire.Writer).
func (w *ArchiveWriter) Frames() wire.FrameCounts {
	if w.bw == nil {
		return wire.FrameCounts{}
	}
	return w.bw.Frames()
}

// Batches returns the total batches accepted across all segments,
// including ones recovered from earlier incarnations — the coordinate
// the collector checkpoint records as its archive high-water mark.
func (w *ArchiveWriter) Batches() uint64 { return w.total }

// seal fsyncs, closes, and renames the open segment into its sealed name,
// then records it in the manifest, whose atomic save fsyncs the directory
// and so makes the rename durable too. A crash between the two leaves a
// sealed file the manifest does not list, which recovery rescans.
func (w *ArchiveWriter) seal() error {
	if w.f == nil {
		return nil
	}
	if err := maybeSync(w.f); err != nil {
		w.f.Close()
		return fmt.Errorf("trace: syncing segment %d: %w", w.seq, err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("trace: closing segment %d: %w", w.seq, err)
	}
	if err := os.Rename(w.openPath, filepath.Join(w.dir, segName(w.seq))); err != nil {
		return fmt.Errorf("trace: sealing segment %d: %w", w.seq, err)
	}
	w.man.Segments = append(w.man.Segments, SegmentInfo{
		Seq: w.seq, Batches: w.segBatches, Samples: w.segSamples, Bytes: w.cw.n,
	})
	w.f = nil
	return saveArchiveManifest(w.dir, w.man)
}

// abandon drops the open segment — file closed and deleted — and clears
// the error latch: a window that failed is absent, not torn.
func (w *ArchiveWriter) abandon() {
	if w.f != nil {
		w.f.Close()
		os.Remove(w.openPath)
		w.f = nil
	}
	w.err = nil
}

// Close seals the open segment. A failed writer's Close reports the
// latched error; the torn segment is left for RecoverArchive.
func (w *ArchiveWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.err != nil {
		if w.f != nil {
			w.f.Close()
			w.f = nil
		}
		return w.err
	}
	return w.seal()
}

// IterArchive streams every archived batch through fn in segment order —
// the exact admission order a collector wrote, window order for a
// recording. The batch is only valid for the duration of the call (the
// reader reuses it). Run RecoverArchive first after a crash; IterArchive
// treats damage as an error.
//
// fn may return wire.SkipTo(n) to be handed next the batch at position
// n+1. IterArchive then opens no segment whose manifest range ends at or
// below n, and decodes the segment the mark lands in from its start,
// dropping its batches up to n — none, for a mark a checkpoint recorded,
// since Sync ends a segment there. Only a requested skip goes by the
// manifest's batch counts; a plain iteration decodes every listed segment
// whatever its entry says.
func IterArchive(dir string, fn func(b *wire.Batch) error) error {
	if fn == nil {
		return errors.New("trace: nil batch handler")
	}
	sk := &skipper{fn: fn, end: math.MaxUint64}
	man, err := loadArchiveManifest(dir)
	if err != nil {
		// No manifest: a legacy window dir, if any of the windows its
		// campaign.json counts is there.
		r, lerr := Open(dir)
		if lerr != nil || !r.legacy {
			return err
		}
		for idx := 0; idx < r.meta.Windows; idx++ {
			if !r.HasWindow(idx) {
				continue
			}
			if err = r.IterWindow(idx, sk.visit); err == errPassSegment {
				err = nil
			} else if err != nil {
				return err
			}
		}
		return err
	}
	sort.Slice(man.Segments, func(i, j int) bool { return man.Segments[i].Seq < man.Segments[j].Seq })
	for _, s := range man.Segments {
		sk.end = sk.pos + s.Batches
		if sk.skipping && sk.end <= sk.mark {
			sk.pos = sk.end // wholly below the mark: never opened
			continue
		}
		// Fresh reader per segment: each segment is a standalone codec
		// stream (MBW3 delta chains never cross segment boundaries).
		err := iterFile(filepath.Join(dir, segName(s.Seq)), fmt.Sprintf("segment %d", s.Seq), sk.visit)
		if err == errPassSegment {
			sk.pos = max(sk.pos, sk.end)
			continue
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// skipper hands an archive's batches to fn, honouring the wire.SkipTo fn
// may return: pos counts the batches passed so far, and those up to mark
// are dropped undelivered.
type skipper struct {
	fn        func(*wire.Batch) error
	pos, mark uint64
	end       uint64 // the position the segment being decoded ends at, by its manifest entry
	skipping  bool   // a skip was requested, so manifest counts are trusted from here on
}

// errPassSegment leaves a segment whose remaining batches all lie at or
// below the skip mark.
var errPassSegment = errors.New("trace: rest of segment lies below the skip mark")

func (sk *skipper) visit(b *wire.Batch) error {
	sk.pos++
	if sk.pos <= sk.mark {
		return nil
	}
	err := sk.fn(b)
	var to wire.SkipTo
	if err == nil || !errors.As(err, &to) {
		return err
	}
	sk.skipping = true
	sk.mark = max(sk.mark, uint64(to))
	if sk.end <= sk.mark {
		return errPassSegment
	}
	return nil
}
