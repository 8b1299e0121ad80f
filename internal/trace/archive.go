package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"mburst/internal/wire"
)

// The collector archive is the durable, append-only record of everything
// mbcollectd admitted: the write-ahead log the checkpoint/restore path
// replays. It is segmented because the MBW3 codec carries delta chains
// across batches written by one writer — appending to an existing stream
// with a fresh writer would silently corrupt decoding. Every collector
// incarnation therefore opens a new segment, and every segment decodes
// standalone:
//
//	<dir>/archive.json     — manifest: wire format + sealed segments
//	<dir>/seg_000001.mbw   — sealed (fsynced, renamed, manifest-listed)
//	<dir>/seg_000002.open  — the incarnation currently appending
//
// A crash leaves at worst a torn tail on the .open segment;
// RecoverArchive truncates it to the decodable prefix and seals it.

// ArchiveManifestName is the archive manifest file name.
const ArchiveManifestName = "archive.json"

const openSuffix = ".open"

// SegmentInfo records one sealed archive segment.
type SegmentInfo struct {
	Seq     int    `json:"seq"`
	Batches uint64 `json:"batches"`
	Samples uint64 `json:"samples"`
	Bytes   int64  `json:"bytes"`
}

// ArchiveManifest is the on-disk shape of ArchiveManifestName.
type ArchiveManifest struct {
	// Format names the wire format segments are written in (informative;
	// readers dispatch on batch magic).
	Format string `json:"wire_format,omitempty"`
	// Segments lists sealed segments in ascending Seq order.
	Segments []SegmentInfo `json:"segments"`
}

func segName(seq int) string     { return fmt.Sprintf("seg_%06d.mbw", seq) }
func segOpenName(seq int) string { return fmt.Sprintf("seg_%06d", seq) + openSuffix }

// ArchiveConfig parameterizes an archive writer.
type ArchiveConfig struct {
	// Format is the wire format for new segments (zero = wire.DefaultFormat).
	Format wire.Format
	// SegmentBatches rotates to a fresh segment after this many batches
	// (default 4096). Rotation bounds how much one torn tail can cost
	// and keeps single segments replayable in bounded memory.
	SegmentBatches int
	// SyncEvery fsyncs the open segment after this many batches
	// (default 64). 1 makes every admitted batch durable before the
	// write returns — what the crash soak runs with.
	SyncEvery int
	// Open creates segment files; nil falls back to os.Create. It is
	// the disk fault-injection point, matching the campaign Writer's
	// Opener contract.
	Open Opener
	// WrapWrites, when non-nil, wraps the byte stream batches are
	// encoded into (fault.WriteChaos interposes torn and short writes
	// here). Sync and Close still go to the underlying file.
	WrapWrites func(io.Writer) io.Writer
}

func (cfg ArchiveConfig) withDefaults() ArchiveConfig {
	if cfg.Format == 0 {
		cfg.Format = wire.DefaultFormat
	}
	if cfg.SegmentBatches <= 0 {
		cfg.SegmentBatches = 4096
	}
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
	f          io.WriteCloser
	cw         *countWriter
	bw         *wire.Writer
	segBatches uint64
	segSamples uint64

	total     uint64
	sinceSync int
	closed    bool
	err       error
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
	data, err := json.MarshalIndent(&man, "", "  ")
	if err != nil {
		return fmt.Errorf("trace: encoding archive manifest: %w", err)
	}
	return atomicWriteFile(filepath.Join(dir, ArchiveManifestName), append(data, '\n'))
}

// CreateArchive initializes an empty archive directory and opens its
// first segment. Like Create, it refuses a directory that already holds
// an archive.
func CreateArchive(dir string, cfg ArchiveConfig) (*ArchiveWriter, error) {
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if _, err := os.Stat(filepath.Join(dir, ArchiveManifestName)); err == nil {
		return nil, fmt.Errorf("trace: %s already holds an archive", dir)
	}
	man := ArchiveManifest{Format: cfg.Format.String()}
	if err := saveArchiveManifest(dir, man); err != nil {
		return nil, err
	}
	w := &ArchiveWriter{dir: dir, cfg: cfg, man: man, seq: 0}
	if err := w.openSegment(1); err != nil {
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
	if err := w.openSegment(next); err != nil {
		return nil, nil, err
	}
	return w, rec, nil
}

func (w *ArchiveWriter) openSegment(seq int) error {
	f, err := w.cfg.Open(filepath.Join(w.dir, segOpenName(seq)))
	if err != nil {
		return fmt.Errorf("trace: opening segment %d: %w", seq, err)
	}
	cw := &countWriter{w: f}
	var sink io.Writer = cw
	if w.cfg.WrapWrites != nil {
		sink = w.cfg.WrapWrites(sink)
	}
	bw, err := wire.NewWriterFormat(sink, w.cfg.Format)
	if err != nil {
		f.Close()
		return err
	}
	w.seq, w.f, w.cw, w.bw = seq, f, cw, bw
	w.segBatches, w.segSamples, w.sinceSync = 0, 0, 0
	return nil
}

// WriteBatch appends one batch, rotating segments and fsyncing per the
// configured cadence. On error the writer is failed for good.
func (w *ArchiveWriter) WriteBatch(b *wire.Batch) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return errors.New("trace: archive closed")
	}
	if w.segBatches >= uint64(w.cfg.SegmentBatches) {
		if err := w.rotate(); err != nil {
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
		return w.Sync()
	}
	return nil
}

// Sync makes everything written so far durable (when the segment file
// supports fsync). The checkpointer calls this before persisting a
// high-water mark so the checkpoint never claims batches the disk lost.
func (w *ArchiveWriter) Sync() error {
	if w.err != nil {
		return w.err
	}
	if w.closed || w.f == nil {
		return nil
	}
	if err := maybeSync(w.f); err != nil {
		w.err = fmt.Errorf("trace: syncing segment %d: %w", w.seq, err)
		return w.err
	}
	w.sinceSync = 0
	return nil
}

// Batches returns the total batches accepted across all segments,
// including ones recovered from earlier incarnations — the coordinate
// the collector checkpoint records as its archive high-water mark.
func (w *ArchiveWriter) Batches() uint64 { return w.total }

// seal fsyncs, closes, and renames the open segment into its sealed name,
// then records it in the manifest.
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
	openPath := filepath.Join(w.dir, segOpenName(w.seq))
	if err := os.Rename(openPath, filepath.Join(w.dir, segName(w.seq))); err != nil {
		return fmt.Errorf("trace: sealing segment %d: %w", w.seq, err)
	}
	if err := syncDir(w.dir); err != nil {
		return err
	}
	w.man.Segments = append(w.man.Segments, SegmentInfo{
		Seq: w.seq, Batches: w.segBatches, Samples: w.segSamples, Bytes: w.cw.n,
	})
	w.f, w.bw, w.cw = nil, nil, nil
	return saveArchiveManifest(w.dir, w.man)
}

func (w *ArchiveWriter) rotate() error {
	if err := w.seal(); err != nil {
		return err
	}
	return w.openSegment(w.seq + 1)
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

// SegmentRecovery describes what an archive recovery scan found in one
// segment that was not sealed in the manifest.
type SegmentRecovery struct {
	Name           string `json:"name"`
	Batches        uint64 `json:"batches"`
	Samples        uint64 `json:"samples"`
	TruncatedBytes int64  `json:"truncated_bytes"`
	Torn           bool   `json:"torn"`
}

// ArchiveRecovery says exactly what an archive recovery found and kept.
type ArchiveRecovery struct {
	// SealedSegments counts segments verified against the manifest.
	SealedSegments int `json:"sealed_segments"`
	// Scanned lists segments that had to be scanned: crashed .open
	// segments and sealed files the manifest missed or missized.
	Scanned []SegmentRecovery `json:"scanned,omitempty"`
	// RemovedTemps lists in-flight temp files that were deleted.
	RemovedTemps []string `json:"removed_temps,omitempty"`
	// Batches and Samples total the durable archive after repair.
	Batches uint64 `json:"batches"`
	Samples uint64 `json:"samples"`
}

// RecoverArchive makes an archive directory consistent after a crash:
// temp files are removed, manifest-sealed segments are trusted at their
// recorded size, open segments are truncated to their decodable prefix
// and sealed, and unlisted or missized sealed files are rescanned. After
// it returns, IterArchive decodes every byte the manifest claims. It
// never panics on damaged input (see FuzzTraceRecover).
func RecoverArchive(dir string) (*ArchiveRecovery, error) {
	man, err := loadArchiveManifest(dir)
	if err != nil {
		return nil, err
	}
	sealed := make(map[int]SegmentInfo, len(man.Segments))
	for _, s := range man.Segments {
		sealed[s.Seq] = s
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	rep := &ArchiveRecovery{}
	out := ArchiveManifest{Format: man.Format}
	record := func(seq int, info SegmentInfo) {
		out.Segments = append(out.Segments, info)
		rep.Batches += info.Batches
		rep.Samples += info.Samples
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, TempSuffix):
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return nil, fmt.Errorf("trace: %w", err)
			}
			rep.RemovedTemps = append(rep.RemovedTemps, name)
		case strings.HasPrefix(name, "seg_") && strings.HasSuffix(name, openSuffix):
			var seq int
			if _, err := fmt.Sscanf(name, "seg_%06d", &seq); err != nil {
				continue
			}
			path := filepath.Join(dir, name)
			fi, err := e.Info()
			if err != nil {
				return nil, fmt.Errorf("trace: %w", err)
			}
			res, err := scanFile(path, true)
			if err != nil {
				return nil, err
			}
			if err := os.Rename(path, filepath.Join(dir, segName(seq))); err != nil {
				return nil, fmt.Errorf("trace: sealing segment %d: %w", seq, err)
			}
			rep.Scanned = append(rep.Scanned, SegmentRecovery{
				Name:           segName(seq),
				Batches:        res.Batches,
				Samples:        res.Samples,
				TruncatedBytes: fi.Size() - res.GoodBytes,
				Torn:           res.Torn,
			})
			record(seq, SegmentInfo{Seq: seq, Batches: res.Batches, Samples: res.Samples, Bytes: res.GoodBytes})
		case strings.HasPrefix(name, "seg_") && strings.HasSuffix(name, ".mbw"):
			var seq int
			if _, err := fmt.Sscanf(name, "seg_%06d.mbw", &seq); err != nil {
				continue
			}
			fi, err := e.Info()
			if err != nil {
				return nil, fmt.Errorf("trace: %w", err)
			}
			if info, ok := sealed[seq]; ok && info.Bytes == fi.Size() {
				rep.SealedSegments++
				record(seq, info)
				continue
			}
			res, err := scanFile(filepath.Join(dir, name), true)
			if err != nil {
				return nil, err
			}
			rep.Scanned = append(rep.Scanned, SegmentRecovery{
				Name:           name,
				Batches:        res.Batches,
				Samples:        res.Samples,
				TruncatedBytes: fi.Size() - res.GoodBytes,
				Torn:           res.Torn,
			})
			record(seq, SegmentInfo{Seq: seq, Batches: res.Batches, Samples: res.Samples, Bytes: res.GoodBytes})
		}
	}
	sort.Slice(rep.Scanned, func(i, j int) bool { return rep.Scanned[i].Name < rep.Scanned[j].Name })
	if err := saveArchiveManifest(dir, out); err != nil {
		return nil, err
	}
	return rep, syncDir(dir)
}

// IterArchive streams every archived batch through fn in segment order —
// the exact admission order the collector wrote. The batch is only valid
// for the duration of the call (the reader reuses it). Run RecoverArchive
// first after a crash; IterArchive treats damage as an error.
func IterArchive(dir string, fn func(b *wire.Batch) error) error {
	if fn == nil {
		return errors.New("trace: nil batch handler")
	}
	man, err := loadArchiveManifest(dir)
	if err != nil {
		return err
	}
	sort.Slice(man.Segments, func(i, j int) bool { return man.Segments[i].Seq < man.Segments[j].Seq })
	for _, s := range man.Segments {
		// Fresh reader per segment: each segment is a standalone codec
		// stream (MBW3 delta chains never cross segment boundaries).
		if err := iterFile(filepath.Join(dir, segName(s.Seq)), fmt.Sprintf("segment %d", s.Seq), fn); err != nil {
			return err
		}
	}
	return nil
}
