package trace

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"mburst/internal/wire"
)

// scanResult reports the decodable prefix of a wire batch stream.
type scanResult struct {
	// GoodBytes is the length of the longest prefix that decodes as
	// complete batches. Bytes past it are a torn or corrupt tail.
	GoodBytes int64
	// Batches and Samples count what the prefix holds.
	Batches uint64
	Samples uint64
	// Torn reports whether anything followed the good prefix.
	Torn bool
}

// scanStream reads wire batches from r until end-of-stream or damage and
// reports the decodable prefix. It never fails: damage is data, reported
// in the result, and the decoder is panic-free on arbitrary bytes (see
// FuzzTraceRecover).
func scanStream(r io.Reader) scanResult {
	br := wire.NewReader(r)
	br.SetReuse(true)
	var res scanResult
	for {
		b, err := br.ReadBatch()
		// A bare io.EOF means no byte of a next frame was there: the
		// stream ended exactly on a frame boundary.
		if err == io.EOF {
			return res
		}
		if err != nil {
			res.Torn = true
			return res
		}
		res.GoodBytes = br.Offset()
		res.Batches++
		res.Samples += uint64(len(b.Samples))
	}
}

// scanFile scans path, truncates it to the good prefix and fsyncs the
// result so recovery decisions are durable: a truncation it cannot make
// durable is an error.
func scanFile(path string) (scanResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return scanResult{}, fmt.Errorf("trace: %w", err)
	}
	res := scanStream(f)
	f.Close()
	if !res.Torn {
		return res, nil
	}
	if err := os.Truncate(path, res.GoodBytes); err != nil {
		return res, fmt.Errorf("trace: truncating %s: %w", path, err)
	}
	w, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err == nil {
		err = w.Sync()
		if cerr := w.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return res, fmt.Errorf("trace: syncing truncated %s: %w", path, err)
	}
	return res, nil
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
	// RemovedSegments lists segments of a collector's log that followed a
	// torn one and were deleted: a resume replays the log by position, so
	// it is kept as its decodable prefix.
	RemovedSegments []string `json:"removed_segments,omitempty"`
	// Batches and Samples total the durable archive after repair.
	Batches uint64 `json:"batches"`
	Samples uint64 `json:"samples"`
}

// RecoverArchive makes an archive directory consistent after a crash:
// temp files (a recording's in-flight window among them) are removed,
// manifest-sealed segments are trusted at their recorded size, open
// segments are truncated to their decodable prefix and sealed, and
// unlisted or missized sealed files are rescanned. A collector's log is
// kept as its decodable prefix: once a segment rescans torn, every later
// segment is removed, since a resume replays the log by position and
// could not replay them in order. A recording's windows are independent
// (and written in any order), so there a torn window costs only itself.
// After it returns, IterArchive decodes every byte the manifest claims,
// and a second run scans nothing. It never panics on damaged input (see
// FuzzTraceRecover and FuzzArchiveManifest).
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
	_, err = os.Stat(filepath.Join(dir, MetaFileName))
	isLog := err != nil
	rep := &ArchiveRecovery{}
	type segFile struct {
		seq  int
		open bool
		e    os.DirEntry
	}
	var segs []segFile
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, TempSuffix) {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return nil, fmt.Errorf("trace: %w", err)
			}
			rep.RemovedTemps = append(rep.RemovedTemps, name)
			continue
		}
		var seq int
		if _, err := fmt.Sscanf(name, "seg_%d", &seq); err != nil {
			continue
		}
		open := name == segOpenName(seq)
		if !open && name != segName(seq) {
			continue
		}
		segs = append(segs, segFile{seq: seq, open: open, e: e})
	}
	// Names sort by seq only below a million segments.
	sort.SliceStable(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	out := ArchiveManifest{Format: man.Format}
	record := func(info SegmentInfo) {
		out.Segments = append(out.Segments, info)
		rep.Batches += info.Batches
		rep.Samples += info.Samples
	}
	torn := false
	for _, sf := range segs {
		seq, name := sf.seq, sf.e.Name()
		path := filepath.Join(dir, name)
		if torn {
			if err := os.Remove(path); err != nil {
				return nil, fmt.Errorf("trace: %w", err)
			}
			rep.RemovedSegments = append(rep.RemovedSegments, name)
			continue
		}
		fi, err := sf.e.Info()
		if err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		if info, ok := sealed[seq]; ok && !sf.open && info.Bytes == fi.Size() {
			rep.SealedSegments++
			record(info)
			continue
		}
		res, err := scanFile(path)
		if err != nil {
			return nil, err
		}
		if sf.open {
			if err := os.Rename(path, filepath.Join(dir, segName(seq))); err != nil {
				return nil, fmt.Errorf("trace: sealing segment %d: %w", seq, err)
			}
		}
		rep.Scanned = append(rep.Scanned, SegmentRecovery{
			Name:           segName(seq),
			Batches:        res.Batches,
			Samples:        res.Samples,
			TruncatedBytes: fi.Size() - res.GoodBytes,
			Torn:           res.Torn,
		})
		record(SegmentInfo{Seq: seq, Batches: res.Batches, Samples: res.Samples, Bytes: res.GoodBytes})
		torn = isLog && res.Torn
	}
	if err := saveArchiveManifest(dir, out); err != nil {
		return nil, err
	}
	return rep, nil
}
