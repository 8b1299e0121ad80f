// Package trace persists measurement campaigns on disk.
//
// The paper's data set is organized as campaigns: for each rack, a random
// port (or port set) is polled for a short window in every hour of a day,
// and the resulting sample streams are retained for offline analysis
// (§4.2: 720 two-minute intervals, ~5M points each). This package mirrors
// that layout:
//
//	<dir>/campaign.json    — Meta: application, rack shape, interval,
//	                          counters, window plan, seed
//	<dir>/window_0000.mbw  — wire-format batches for window 0
//	<dir>/window_0001.mbw  — ...
//
// Windows are independent files so a partial campaign is loadable and
// windows can be processed streamingly.
//
// Window files carry wire-format batches in one of two on-disk layouts:
// trace-v1 (the default, MBW1/MBW2 row framing) and trace-v2 (MBW3
// columnar delta framing, typically several times smaller). Meta.Format
// records which one a campaign uses; readers dispatch per batch magic, so
// either layout — and mixtures — decode through the same Reader forever.
package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"mburst/internal/collector"
	"mburst/internal/shard"
	"mburst/internal/simclock"
	"mburst/internal/wire"
)

// MetaFileName is the campaign metadata file name.
const MetaFileName = "campaign.json"

// Meta describes a campaign. It is stored as JSON for human inspection;
// the bulky sample data lives in the binary window files.
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
	// Windows is the number of measurement windows (one per "hour").
	Windows int `json:"windows"`
	// Seed reproduces the campaign bit-for-bit.
	Seed uint64 `json:"seed"`
	// Counters lists what was polled.
	Counters []collector.CounterSpec `json:"counters"`
	// Format names the wire format of the window files ("mbw1", "mbw2",
	// "mbw3"); empty means the legacy default (trace-v1). Recorded for
	// provenance — readers dispatch on each batch's magic, not on this.
	Format string `json:"wire_format,omitempty"`
	// Notes is free-form context (which figure the campaign feeds, etc).
	Notes string `json:"notes,omitempty"`
	// Placement, when non-nil, records the fleet campaign's versioned
	// rack→shard placement (see internal/shard): which collector shard
	// owned each rack's stream. Single-collector campaigns omit it.
	Placement *shard.Placement `json:"placement,omitempty"`
}

// WireFormat resolves Format to a wire.Format, defaulting the empty
// string to wire.DefaultFormat.
func (m *Meta) WireFormat() (wire.Format, error) {
	if m.Format == "" {
		return wire.DefaultFormat, nil
	}
	return wire.ParseFormat(m.Format)
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
	if _, err := m.WireFormat(); err != nil {
		return err
	}
	return nil
}

func windowFileName(i int) string { return fmt.Sprintf("window_%04d.mbw", i) }

// BatchSize is the number of samples per batch in window files. Exported
// so consumers that reconstruct per-batch provenance (the ptrace campaign
// recorder) chunk samples exactly as WriteWindow framed them.
const BatchSize = 8192

// Writer writes a campaign to a directory.
type Writer struct {
	dir    string
	meta   Meta
	format wire.Format
	done   map[int]bool
	open   Opener
	man    windowManifest
}

// Opener creates the file backing one window. It exists so fault-injection
// harnesses can interpose disk errors (see internal/fault.FlakyOpener,
// which matches this type structurally); production writers use os.Create.
type Opener func(path string) (io.WriteCloser, error)

// defaultOpener adapts os.Create to Opener.
func defaultOpener(path string) (io.WriteCloser, error) { return os.Create(path) }

// Create initializes a campaign directory (creating it if needed) and
// writes the metadata file. It refuses to reuse a directory that already
// contains a campaign: measurement data should never be silently
// overwritten. Window files are opened through open; a nil opener falls
// back to os.Create.
func Create(dir string, meta Meta, open Opener) (*Writer, error) {
	if err := meta.Validate(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	metaPath := filepath.Join(dir, MetaFileName)
	if _, err := os.Stat(metaPath); err == nil {
		return nil, fmt.Errorf("trace: %s already holds a campaign", dir)
	}
	data, err := json.MarshalIndent(&meta, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("trace: encoding meta: %w", err)
	}
	if err := atomicWriteFile(metaPath, append(data, '\n')); err != nil {
		return nil, err
	}
	format, err := meta.WireFormat() // Validate already vetted it
	if err != nil {
		return nil, err
	}
	if open == nil {
		open = defaultOpener
	}
	return &Writer{dir: dir, meta: meta, format: format, done: make(map[int]bool), open: open}, nil
}

// Meta returns the campaign metadata.
func (w *Writer) Meta() Meta { return w.meta }

// countWriter counts bytes written through it for the window manifest.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// WriteWindow persists one window's samples. Each window may be written
// exactly once; idx must be in [0, meta.Windows).
//
// The window is finalized atomically: batches stream to a temp file,
// which is fsynced, renamed into place, and recorded in the manifest
// (itself an atomic write). A crash at any point leaves either a sealed,
// manifest-listed window or a temp file that recovery deletes — never a
// half-written window under the final name.
func (w *Writer) WriteWindow(idx int, rack uint32, samples []wire.Sample) error {
	if idx < 0 || idx >= w.meta.Windows {
		return fmt.Errorf("trace: window %d out of range [0,%d)", idx, w.meta.Windows)
	}
	if w.done[idx] {
		return fmt.Errorf("trace: window %d already written", idx)
	}
	final := filepath.Join(w.dir, windowFileName(idx))
	tmp := final + TempSuffix
	f, err := w.open(tmp)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	abort := func() { f.Close(); os.Remove(tmp) }
	cw := &countWriter{w: f}
	// One codec per window file: every window decodes standalone, so
	// partial campaigns stay loadable.
	bw, err := wire.NewWriterFormat(cw, w.format)
	if err != nil {
		abort()
		return err
	}
	var batches, count uint64
	for off := 0; off < len(samples); off += BatchSize {
		end := off + BatchSize
		if end > len(samples) {
			end = len(samples)
		}
		if err := bw.WriteBatch(&wire.Batch{Rack: rack, Samples: samples[off:end]}); err != nil {
			abort()
			return fmt.Errorf("trace: writing window %d: %w", idx, err)
		}
		batches++
		count += uint64(end - off)
	}
	// An empty window still produces a (valid, empty) file so Open can
	// distinguish "empty" from "missing".
	if len(samples) == 0 {
		if err := bw.WriteBatch(&wire.Batch{Rack: rack}); err != nil {
			abort()
			return fmt.Errorf("trace: writing window %d: %w", idx, err)
		}
		batches++
	}
	if err := maybeSync(f); err != nil {
		abort()
		return fmt.Errorf("trace: syncing window %d: %w", idx, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("trace: closing window %d: %w", idx, err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("trace: sealing window %d: %w", idx, err)
	}
	if err := syncDir(w.dir); err != nil {
		return err
	}
	w.man.Windows = append(w.man.Windows, WindowInfo{Idx: idx, Batches: batches, Samples: count, Bytes: cw.n})
	if err := saveWindowManifest(w.dir, w.man); err != nil {
		return err
	}
	w.done[idx] = true
	return nil
}

// Discard removes everything the writer created — the metadata file, every
// window it wrote, and (when empty afterwards) the directory itself. It is
// the cleanup path for canceled or failed recordings: a campaign directory
// either holds a complete campaign or nothing.
func (w *Writer) Discard() error {
	var firstErr error
	keep := func(err error) {
		if err != nil && !os.IsNotExist(err) && firstErr == nil {
			firstErr = err
		}
	}
	for idx := range w.done {
		keep(os.Remove(filepath.Join(w.dir, windowFileName(idx))))
	}
	// In-flight temp files from an interrupted WriteWindow, plus the
	// manifest, go too: nothing may suggest a campaign remains.
	if names, err := filepath.Glob(filepath.Join(w.dir, "window_*.mbw"+TempSuffix)); err == nil {
		for _, name := range names {
			keep(os.Remove(name))
		}
	}
	keep(os.Remove(filepath.Join(w.dir, ManifestFileName)))
	keep(os.Remove(filepath.Join(w.dir, MetaFileName)))
	// Best-effort: only succeeds when the directory held nothing else.
	os.Remove(w.dir)
	if firstErr != nil {
		return fmt.Errorf("trace: discarding campaign: %w", firstErr)
	}
	return nil
}

// Reader reads a campaign from a directory.
type Reader struct {
	dir  string
	meta Meta
}

// Open loads a campaign's metadata.
func Open(dir string) (*Reader, error) {
	data, err := os.ReadFile(filepath.Join(dir, MetaFileName))
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	var meta Meta
	if err := json.Unmarshal(data, &meta); err != nil {
		return nil, fmt.Errorf("trace: decoding meta: %w", err)
	}
	if err := meta.Validate(); err != nil {
		return nil, err
	}
	return &Reader{dir: dir, meta: meta}, nil
}

// Meta returns the campaign metadata.
func (r *Reader) Meta() Meta { return r.meta }

// HasWindow reports whether window idx exists on disk.
func (r *Reader) HasWindow(idx int) bool {
	_, err := os.Stat(filepath.Join(r.dir, windowFileName(idx)))
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
	return iterFile(filepath.Join(r.dir, windowFileName(idx)), fmt.Sprintf("window %d", idx), fn)
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
