// Package trace persists measurement campaigns on disk.
//
// The paper's data set is organized as campaigns: for each rack, a random
// port (or port set) is polled for a short window in every hour of a day,
// and the resulting sample streams are retained for offline analysis
// (§4.2: 720 two-minute intervals, ~5M points each). Everything this
// package writes is one layout, the segmented archive (archive.go); a
// recorded campaign is an archive with one segment per window, beside its
// metadata:
//
//	<dir>/campaign.json    — Meta: application, rack shape, interval,
//	                          counters, window plan, seed
//	<dir>/archive.json     — manifest: wire format + sealed segments
//	<dir>/seg_000001.mbw   — wire-format batches for window 0
//	<dir>/seg_000002.mbw   — window 1, ...
//
// Windows are independent segments so a partial campaign is loadable and
// windows can be processed streamingly. A collector's archive is the same
// without campaign.json, and a fleet directory (fleet.go) is one archive
// per shard. Directories recorded before this layout (window_0000.mbw, ...
// and no archive.json) stay readable; they are never written or repaired.
//
// Segments carry wire-format batches. Every segment this package writes is
// MBW3 (columnar delta framing), and Create stamps Meta.Format to say so;
// readers dispatch per batch magic, so directories recorded in the older
// MBW1/MBW2 row framing — and stores resumed across the switch, which mix
// both — decode through the same Reader forever.
package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"

	"mburst/internal/collector"
	"mburst/internal/shard"
	"mburst/internal/simclock"
	"mburst/internal/wire"
)

// MetaFileName is the campaign metadata file name.
const MetaFileName = "campaign.json"

// Meta describes a campaign. It is stored as JSON for human inspection;
// the bulky sample data lives in the binary segments.
type Meta struct {
	// App is the workload name ("web", "cache", "hadoop").
	App string `json:"app"`
	// RackID identifies the rack within the study.
	RackID int `json:"rack_id"`
	// NumServers / NumUplinks / speeds describe the rack shape.
	NumServers  int    `json:"num_servers"`
	NumUplinks  int    `json:"num_uplinks"`
	ServerSpeed uint64 `json:"server_speed_bps"`
	UplinkSpeed uint64 `json:"uplink_speed_bps"`
	// Interval is the target sampling interval in nanoseconds.
	Interval simclock.Duration `json:"interval_ns"`
	// WindowDur is each window's duration in nanoseconds.
	WindowDur simclock.Duration `json:"window_ns"`
	// Windows is the number of measurement windows (one per "hour"). In a
	// fleet campaign (Placement set) every rack runs one window and this
	// is the rack count; the persisted name stays so older dirs load.
	Windows int `json:"windows"`
	// Seed reproduces the campaign bit-for-bit.
	Seed uint64 `json:"seed"`
	// Counters lists what was polled.
	Counters []collector.CounterSpec `json:"counters"`
	// Format names the wire format the campaign was recorded in ("mbw1",
	// "mbw2", "mbw3"; empty in the oldest directories). Create and
	// WriteFleetMeta stamp it "mbw3" whatever the caller set; on load it is
	// provenance only — readers dispatch on each batch's magic, not on this.
	Format string `json:"wire_format,omitempty"`
	// Notes is free-form context (which figure the campaign feeds, etc).
	Notes string `json:"notes,omitempty"`
	// Placement, when non-nil, records the fleet campaign's versioned
	// rack→shard placement (see internal/shard): which collector shard
	// owned each rack's stream. Single-collector campaigns omit it.
	Placement *shard.Placement `json:"placement,omitempty"`
}

// Validate checks meta for obvious inconsistencies.
func (m *Meta) Validate() error {
	switch {
	case m.App == "":
		return errors.New("trace: empty app")
	case m.NumServers <= 0 || m.NumUplinks <= 0:
		return fmt.Errorf("trace: bad rack shape %d/%d", m.NumServers, m.NumUplinks)
	case m.Interval <= 0:
		return fmt.Errorf("trace: bad interval %v", m.Interval)
	case m.WindowDur <= 0:
		return fmt.Errorf("trace: bad window duration %v", m.WindowDur)
	case m.Windows <= 0:
		return fmt.Errorf("trace: bad window count %d", m.Windows)
	case len(m.Counters) == 0:
		return errors.New("trace: no counters recorded")
	}
	if m.Format != "" {
		if _, err := wire.ParseFormat(m.Format); err != nil {
			return err
		}
	}
	return nil
}

// BatchSize is the number of samples per batch in a window's segment.
// Exported so consumers that reconstruct per-batch provenance (the ptrace
// campaign recorder) chunk samples exactly as WriteWindow framed them.
const BatchSize = 8192

// Writer writes a campaign to a directory: an archive whose segment k+1
// is window k, written whole or not at all.
type Writer struct {
	windows int
	arch    *ArchiveWriter
}

// Opener creates the file backing one segment. It exists so fault-injection
// harnesses can interpose disk faults (internal/fault.WriteChaos.Wrap
// decorates one); production writers use os.Create.
type Opener func(path string) (io.WriteCloser, error)

// defaultOpener adapts os.Create to Opener.
func defaultOpener(path string) (io.WriteCloser, error) { return os.Create(path) }

// Create initializes a campaign directory (creating it if needed): the
// metadata file and an empty archive. It refuses to reuse a directory that
// already contains either: measurement data should never be silently
// overwritten. Segment files are opened through open; a nil opener falls
// back to os.Create.
func Create(dir string, meta Meta, open Opener) (*Writer, error) {
	if err := meta.Validate(); err != nil {
		return nil, err
	}
	meta.Format = wire.FormatMBW3.String()
	if _, err := os.Stat(filepath.Join(dir, MetaFileName)); err == nil {
		return nil, fmt.Errorf("trace: %s already holds a campaign", dir)
	}
	// A window is one segment with one fsync, at its seal, however many
	// batches it holds: no cadence.
	arch, err := newArchive(dir, ArchiveConfig{Open: open, SyncEvery: math.MaxInt})
	if err != nil {
		return nil, err
	}
	if err := writeJSON(filepath.Join(dir, MetaFileName), &meta); err != nil {
		return nil, err
	}
	return &Writer{windows: meta.Windows, arch: arch}, nil
}

// WriteWindow persists one window's samples as segment idx+1. Each window
// may be written exactly once, in any order; idx must be in
// [0, Meta.Windows).
//
// The window is finalized atomically: batches stream to a TempSuffix
// file, which is fsynced, renamed into place, and recorded in the
// manifest (itself an atomic write). A crash at any point leaves either a
// sealed window or a temp file that RecoverArchive deletes — never a
// half-written window under the final name.
func (w *Writer) WriteWindow(idx int, rack uint32, samples []wire.Sample) error {
	if idx < 0 || idx >= w.windows {
		return fmt.Errorf("trace: window %d out of range [0,%d)", idx, w.windows)
	}
	a, seq := w.arch, idx+1
	for _, s := range a.man.Segments {
		if s.Seq == seq {
			return fmt.Errorf("trace: window %d already written", idx)
		}
	}
	// One codec per window: every segment decodes standalone, so partial
	// campaigns stay loadable.
	err := a.openSegment(seq, segName(seq)+TempSuffix)
	// An empty window still produces a (valid, empty) segment so Open can
	// distinguish "empty" from "missing".
	for off := 0; err == nil && (off == 0 || off < len(samples)); off += BatchSize {
		end := min(off+BatchSize, len(samples))
		err = a.WriteBatch(&wire.Batch{Rack: rack, Samples: samples[off:end]})
	}
	if err == nil {
		err = a.seal()
	}
	if err != nil {
		a.abandon()
	}
	return err
}

// Discard removes everything a recording leaves in its directory — both
// JSON files, every segment sealed or in flight — and, when empty
// afterwards, the directory itself. It goes by name, not by what the
// writer believes it wrote: a window sealed by the call that then failed
// must go too. It is the cleanup path for canceled or failed recordings: a
// campaign directory either holds a complete campaign or nothing.
func (w *Writer) Discard() error {
	a := w.arch
	a.abandon()
	entries, err := os.ReadDir(a.dir)
	for _, e := range entries {
		name := e.Name()
		if name == MetaFileName || name == ArchiveManifestName ||
			strings.HasPrefix(name, "seg_") || strings.HasSuffix(name, TempSuffix) {
			err = errors.Join(err, os.Remove(filepath.Join(a.dir, name)))
		}
	}
	// Best-effort: only succeeds when the directory held nothing else.
	os.Remove(a.dir)
	if err != nil {
		return fmt.Errorf("trace: discarding campaign: %w", err)
	}
	return nil
}

// Reader reads a campaign from a directory.
type Reader struct {
	dir  string
	meta Meta
	// legacy marks a window dir from before recordings were archives.
	legacy bool
}

// Open loads a campaign's metadata, and decides once how windows are
// named: a directory without an archive manifest predates the layout. A
// fleet directory has no windows to read — its Windows counts racks — and
// is refused by name rather than opened as an empty campaign.
func Open(dir string) (*Reader, error) {
	meta, err := readMeta(dir)
	if err != nil {
		return nil, err
	}
	if meta.Placement != nil {
		return nil, fmt.Errorf("trace: %s is a fleet campaign: its samples live in per-shard archives (IterFleet), not in windows", dir)
	}
	_, err = os.Stat(filepath.Join(dir, ArchiveManifestName))
	return &Reader{dir: dir, meta: meta, legacy: err != nil}, nil
}

// readMeta loads and validates dir's campaign.json.
func readMeta(dir string) (Meta, error) {
	data, err := os.ReadFile(filepath.Join(dir, MetaFileName))
	if err != nil {
		return Meta{}, fmt.Errorf("trace: %w", err)
	}
	var meta Meta
	if err := json.Unmarshal(data, &meta); err != nil {
		return Meta{}, fmt.Errorf("trace: decoding meta: %w", err)
	}
	return meta, meta.Validate()
}

// Meta returns the campaign metadata.
func (r *Reader) Meta() Meta { return r.meta }

// windowPath names the file holding window idx.
func (r *Reader) windowPath(idx int) string {
	if r.legacy {
		return filepath.Join(r.dir, fmt.Sprintf("window_%04d.mbw", idx))
	}
	return filepath.Join(r.dir, segName(idx+1))
}

// HasWindow reports whether window idx exists on disk.
func (r *Reader) HasWindow(idx int) bool {
	_, err := os.Stat(r.windowPath(idx))
	return err == nil
}

// IterWindow streams window idx batch-by-batch through fn without loading
// the whole window into memory — a 2-minute 25 µs campaign holds ~5M
// samples per counter, so analyses over many counters should stream.
// Iteration stops early if fn returns a non-nil error, which is returned.
//
// The batch (and its Samples slice) is only valid for the duration of the
// fn call: the reader reuses it for the next batch. Handlers that keep
// samples must copy the values out.
func (r *Reader) IterWindow(idx int, fn func(batch *wire.Batch) error) error {
	if idx < 0 || idx >= r.meta.Windows {
		return fmt.Errorf("trace: window %d out of range [0,%d)", idx, r.meta.Windows)
	}
	if fn == nil {
		return fmt.Errorf("trace: nil batch handler")
	}
	return iterFile(r.windowPath(idx), fmt.Sprintf("window %d", idx), fn)
}

// iterFile streams one batch file — a campaign window or an archive
// segment, each a standalone codec stream — through fn. what names the
// file in decode errors; fn's own errors pass through unwrapped.
func iterFile(path, what string, fn func(*wire.Batch) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	br := wire.NewReader(f)
	br.SetReuse(true)
	for {
		b, err := br.ReadBatch()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("trace: %s: %w", what, err)
		}
		if err := fn(b); err != nil {
			return err
		}
	}
}
