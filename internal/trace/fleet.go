package trace

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"mburst/internal/shard"
	"mburst/internal/wire"
)

// A fleet campaign directory is the sharded counterpart of a collector
// archive: one subdirectory per collector shard, each a self-contained
// archive of the batches that shard admitted, tied together by a
// manifest naming the placement that routed racks to shards:
//
//	<dir>/campaign.json      — Meta with Placement: what was measured
//	<dir>/fleet.json         — FleetManifest: shard layout + totals
//	<dir>/shard_000/         — shard 0's archive (see archive.go)
//	<dir>/shard_001/         — ...
//
// Because the placement assigns every rack to exactly one shard, the
// union of the shard archives is a partition of the fleet's batch
// stream; IterFleet re-merges it into one deterministic presentation
// order so single-collector tooling (mbdump, offline analyses) reads a
// fleet directory exactly like a campaign.

// FleetManifestName is the fleet manifest file name.
const FleetManifestName = "fleet.json"

// FleetShard describes one shard's archive within a fleet directory.
type FleetShard struct {
	// ID is the shard's placement index; Name its placement name.
	ID   int    `json:"id"`
	Name string `json:"name"`
	// Dir is the shard archive directory, relative to the fleet dir.
	Dir string `json:"dir"`
	// Batches / Samples are the shard's admitted totals.
	Batches uint64 `json:"batches"`
	Samples uint64 `json:"samples"`
}

// FleetManifest ties a fleet directory's shard archives together.
type FleetManifest struct {
	// Racks is the fleet's rack count.
	Racks int `json:"racks"`
	// Placement is the versioned rack→shard placement the campaign ran
	// under — the routing function IterFleet validates archives against.
	Placement shard.Placement `json:"placement"`
	// Shards lists every shard archive in placement index order.
	Shards []FleetShard `json:"shards"`
}

// Validate checks the manifest's internal consistency.
func (m *FleetManifest) Validate() error {
	if m.Racks <= 0 {
		return fmt.Errorf("trace: fleet manifest has %d racks", m.Racks)
	}
	if err := m.Placement.Validate(); err != nil {
		return err
	}
	if len(m.Shards) != m.Placement.NumShards() {
		return fmt.Errorf("trace: fleet manifest lists %d shards for a placement of %d",
			len(m.Shards), m.Placement.NumShards())
	}
	for i, s := range m.Shards {
		if s.ID != i {
			return fmt.Errorf("trace: fleet manifest shard %d carries id %d", i, s.ID)
		}
		// The manifest is read from disk and Dir is joined to the fleet
		// directory: it may not name anything outside it.
		if !filepath.IsLocal(s.Dir) {
			return fmt.Errorf("trace: fleet manifest shard %d: archive dir %q is not inside the fleet directory", i, s.Dir)
		}
	}
	return nil
}

// WriteFleetManifest persists the manifest into dir atomically.
func WriteFleetManifest(dir string, m FleetManifest) error {
	if err := m.Validate(); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, FleetManifestName), &m)
}

// ReadFleetManifest loads dir's fleet manifest. A directory without one
// (a plain campaign or archive) returns ok=false.
func ReadFleetManifest(dir string) (FleetManifest, bool, error) {
	data, err := os.ReadFile(filepath.Join(dir, FleetManifestName))
	if os.IsNotExist(err) {
		return FleetManifest{}, false, nil
	}
	if err != nil {
		return FleetManifest{}, false, fmt.Errorf("trace: %w", err)
	}
	var m FleetManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return FleetManifest{}, false, fmt.Errorf("trace: decoding fleet manifest: %w", err)
	}
	if err := m.Validate(); err != nil {
		return FleetManifest{}, false, err
	}
	return m, true, nil
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
// Every batch is validated against the manifest placement: a batch in a
// shard archive whose rack the placement owns elsewhere is a placement
// violation and fails the iteration.
func IterFleet(dir string, fn func(b *wire.Batch) error) error {
	if fn == nil {
		return fmt.Errorf("trace: nil batch handler")
	}
	man, ok, err := ReadFleetManifest(dir)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("trace: %s holds no fleet manifest", dir)
	}
	perRack := make(map[uint32][]wire.Batch)
	for _, fs := range man.Shards {
		sub := filepath.Join(dir, fs.Dir)
		err := IterArchive(sub, func(b *wire.Batch) error {
			if man.Placement.ShardOf(b.Rack) != fs.ID {
				return fmt.Errorf("trace: placement violation: shard %d archived rack %d owned by shard %d",
					fs.ID, b.Rack, man.Placement.ShardOf(b.Rack))
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
