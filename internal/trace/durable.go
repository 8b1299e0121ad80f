package trace

import (
	"encoding/json"
	"fmt"

	"mburst/internal/collector"
)

// This file holds the fsync discipline shared by campaign writers and the
// collector archive. Crash safety rests on two primitives:
//
//   - writeJSON: small metadata files (campaign.json, the manifests) are
//     written to a temp name, fsynced, renamed into place, and the
//     directory fsynced — a crash leaves either the old or the new
//     content, never a torn mixture. That directory fsync also makes
//     durable a segment rename just before a manifest save.
//   - maybeSync: bulk segment files are fsynced through whatever the
//     Opener handed back, when it supports it (os.File does; test
//     doubles may not).

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

// writeJSON durably replaces path with v as indented JSON: temp file in
// the same directory (path + TempSuffix), fsync, rename, directory fsync.
// The write is the collector's checkpoint writer — one discipline for
// every small metadata file of the durable plane.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err == nil {
		err = collector.WriteFileAtomic(path, append(data, '\n'))
	}
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
