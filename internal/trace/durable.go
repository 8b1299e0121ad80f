package trace

import (
	"fmt"
	"os"

	"mburst/internal/collector"
)

// This file holds the fsync discipline shared by campaign writers and the
// collector archive. Crash safety rests on three primitives:
//
//   - atomicWriteFile: small metadata files (campaign.json, manifests,
//     checkpoints) are written to a temp name, fsynced, renamed into
//     place, and the directory fsynced — a crash leaves either the old
//     or the new content, never a torn mixture.
//   - maybeSync: bulk window/segment files are fsynced through whatever
//     the Opener handed back, when it supports it (os.File does; test
//     doubles may not).
//   - syncDir: renames only become durable once the containing directory
//     entry is flushed.

// TempSuffix marks in-flight files that have not been atomically
// finalized. Recovery deletes them; readers ignore them.
const TempSuffix = ".tmp"

// syncer is the optional fsync surface of an opened file.
type syncer interface{ Sync() error }

// maybeSync fsyncs v when it can. Openers that return plain buffers
// (tests) simply skip the barrier.
func maybeSync(v any) error {
	if s, ok := v.(syncer); ok {
		return s.Sync()
	}
	return nil
}

// syncDir fsyncs the directory so renames performed inside it survive a
// crash. Filesystems without directory handles (or read-only test
// doubles) make this a no-op rather than an error: the rename itself
// already happened, we only lose the durability barrier.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		// Some filesystems reject fsync on directories; treat as best
		// effort like os.File-less openers above.
		return nil
	}
	return nil
}

// atomicWriteFile durably replaces path with data: temp file in the same
// directory (path + TempSuffix), fsync, rename, directory fsync. The body
// is the collector's checkpoint writer — one write discipline for every
// small metadata file of the durable plane.
func atomicWriteFile(path string, data []byte) error {
	if err := collector.WriteFileAtomic(path, data); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
