package trace

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

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
// stream; IterFleet re-merges it into one deterministic presentation
// order so single-collector tooling (mbdump, offline analyses) reads a
// fleet directory exactly like a campaign.

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

// IterFleet streams a fleet directory's batches through fn in the
// merged presentation order: racks ascending, and within a rack the
// shard archive's admission order (per-rack admission is time-ordered,
// so this is also time order). The order is a pure function of the
// directory contents — independent of how many workers produced the
// archives — which is what lets mbdump and the golden tests treat a
// fleet directory like one campaign. Batches are deep copies owned by
// the callback.
//
// Every batch is validated against the campaign's placement: a batch in a
// shard archive whose rack the placement owns elsewhere is a placement
// violation and fails the iteration.
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
	perRack := make(map[uint32][]wire.Batch)
	for id, name := range pl.Shards {
		err := IterArchive(filepath.Join(dir, name), func(b *wire.Batch) error {
			if pl.ShardOf(b.Rack) != id {
				return fmt.Errorf("trace: placement violation: shard %d archived rack %d owned by shard %d",
					id, b.Rack, pl.ShardOf(b.Rack))
			}
			perRack[b.Rack] = append(perRack[b.Rack], wire.Batch{
				Rack: b.Rack, Epoch: b.Epoch,
				Samples: append([]wire.Sample(nil), b.Samples...),
			})
			return nil
		})
		if err != nil {
			return err
		}
	}
	racks := make([]uint32, 0, len(perRack))
	for r := range perRack {
		racks = append(racks, r)
	}
	sort.Slice(racks, func(i, j int) bool { return racks[i] < racks[j] })
	for _, r := range racks {
		for i := range perRack[r] {
			if err := fn(&perRack[r][i]); err != nil {
				return err
			}
		}
	}
	return nil
}
