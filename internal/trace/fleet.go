package trace

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"mburst/internal/shard"
	"mburst/internal/wire"
)

// A fleet campaign directory is the sharded counterpart of a collector
// archive: one subdirectory per collector shard, each a self-contained
// archive of the batches that shard admitted, tied together by the
// placement that routed racks to shards:
//
//	<dir>/campaign.json      — Meta with Placement: what was measured, and
//	                           the shard names, which are the directory names
//	<dir>/shard_000/         — shard 0's archive (see archive.go)
//	<dir>/shard_001/         — ...
//
// Directories written by older binaries also hold a fleet.json and a
// fleet_checkpoint.json restating the above; they are never opened.
//
// Because the placement assigns every rack to exactly one shard, the
// union of the shard archives is a partition of the fleet's batch
// stream, and IterFleet reads it as stored, shard after shard, so
// single-collector tooling (mbdump, offline analyses) streams a fleet
// directory like a campaign, one batch at a time.

// FleetMeta loads dir's campaign.json and reports whether it describes a
// fleet: a directory is a fleet iff its metadata carries a placement, and
// shard k's archive is then dir/meta.Placement.Name(k). A directory
// without campaign.json, or with one that has no placement (a plain
// recording), returns ok=false.
func FleetMeta(dir string) (Meta, bool, error) {
	meta, err := readMeta(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return Meta{}, false, nil
	}
	if err != nil || meta.Placement == nil {
		return Meta{}, false, err
	}
	if err := validateShardDirs(*meta.Placement); err != nil {
		return Meta{}, false, err
	}
	return meta, true, nil
}

// validateShardDirs checks a fleet placement whose shard names are
// joined to the fleet directory: each must name a subdirectory inside it,
// spelled one way only — its filepath.Clean form, and not "." (the fleet
// directory itself). Distinct names then name distinct directories, so no
// two shards share a store.
func validateShardDirs(pl shard.Placement) error {
	if err := pl.Validate(); err != nil {
		return err
	}
	for i, name := range pl.Shards {
		if !filepath.IsLocal(name) {
			return fmt.Errorf("trace: fleet shard %d: archive dir %q is not inside the fleet directory", i, name)
		}
		if name == "." || filepath.Clean(name) != name {
			return fmt.Errorf("trace: fleet shard %d: archive dir %q is not a clean subdirectory name", i, name)
		}
	}
	return nil
}

// WriteFleetMeta writes a fleet directory's campaign.json. meta must
// carry the placement; unlike Create, no window writer is returned —
// the sample data lives in the shard archives.
func WriteFleetMeta(dir string, meta Meta) error {
	if meta.Placement == nil {
		return fmt.Errorf("trace: fleet meta without a placement")
	}
	if err := meta.Validate(); err != nil {
		return err
	}
	if err := validateShardDirs(*meta.Placement); err != nil {
		return err
	}
	meta.Format = wire.FormatMBW3.String() // what every shard archive is written in
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return writeJSON(filepath.Join(dir, MetaFileName), &meta)
}

// IterFleet streams a fleet directory's batches through fn in storage
// order: shard 0's archive in its admission order, then shard 1's, and
// so on, so each rack's batches come in time order. The order is a pure
// function of the directory's bytes, but fleets written at different
// worker counts may interleave racks differently (their totals agree).
// As with IterArchive, the batch is valid only for the duration of the
// call, and fn's error ends the iteration and is returned as is (a
// wire.SkipTo skips within the shard being read).
//
// Every batch is checked against the campaign's placement as it passes:
// a batch in a shard archive whose rack another shard owns is a
// placement violation, which fails the iteration after fn was handed the
// batches before it.
func IterFleet(dir string, fn func(b *wire.Batch) error) error {
	if fn == nil {
		return fmt.Errorf("trace: nil batch handler")
	}
	meta, ok, err := FleetMeta(dir)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("trace: %s holds no fleet campaign", dir)
	}
	pl := meta.Placement
	for id, name := range pl.Shards {
		err := IterArchive(filepath.Join(dir, name), func(b *wire.Batch) error {
			if owner := pl.ShardOf(b.Rack); owner != id {
				return fmt.Errorf("trace: placement violation: shard %d archived rack %d owned by shard %d",
					id, b.Rack, owner)
			}
			return fn(b)
		})
		if err != nil {
			return err
		}
	}
	return nil
}
