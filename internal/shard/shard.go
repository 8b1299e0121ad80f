// Package shard maps racks onto collector shards.
//
// The paper measures one rack per collector because polling cost caps
// coverage; the fleet tier breaks that open by fanning thousands of
// racks into M sharded collectors whose accumulator snapshots merge
// into fleet-wide figures. The contract that makes the merge exact is
// ownership: every rack — and therefore every (rack, port, dir, kind)
// series — belongs to exactly one shard, so shard-local accumulators
// partition the fleet state and their union is bit-identical to a
// single collector that saw everything.
//
// Placement implements that ownership with rendezvous (highest-random-
// weight) hashing over a seeded FNV-1a score, the same ASIC-style
// fold internal/ecmp.FlowHasher uses for uplink selection. Rendezvous
// hashing gives the two properties a fleet needs operationally:
//
//   - deterministic: any agent or collector holding (seed, shard list)
//     computes the same rack→shard map with no coordination;
//   - minimal disruption: adding a shard moves only the racks that now
//     score highest on it, and removing a shard moves only the racks it
//     owned. Racks never shuffle between surviving shards.
//
// A Placement is explicit and versioned: membership edits go through
// WithShard/WithoutShard, which bump Version, so campaign metadata
// (campaign.json) records exactly which generation of the map produced
// an archive.
package shard

import (
	"errors"
	"fmt"
)

// Placement is a versioned rack→shard map: a seed plus an ordered shard
// list. The shard index in Shards is the shard's identity everywhere
// (archive subdirectories, -shard flags, ShardUpdate.Shard); the name is
// the stable handle that survives membership changes.
type Placement struct {
	// Version counts membership generations. WithShard and WithoutShard
	// return a Placement with Version+1; two placements with the same
	// Version, Seed and Shards are interchangeable.
	Version int `json:"version"`
	// Seed perturbs the rendezvous scores, so distinct campaigns spread
	// racks differently over the same shard list.
	Seed uint64 `json:"seed"`
	// Shards lists the shard names in index order.
	Shards []string `json:"shards"`
}

// New returns a version-1 placement over the given shard names.
func New(shards []string, seed uint64) (Placement, error) {
	p := Placement{Version: 1, Seed: seed, Shards: append([]string(nil), shards...)}
	if err := p.Validate(); err != nil {
		return Placement{}, err
	}
	return p, nil
}

// Uniform returns a version-1 placement over n canonically named shards
// ("shard_000", "shard_001", ...) — the in-process fleet harness shape,
// where shard identity is positional.
func Uniform(n int, seed uint64) (Placement, error) {
	if n <= 0 {
		return Placement{}, fmt.Errorf("shard: need at least one shard, got %d", n)
	}
	names := make([]string, n)
	for i := range names {
		names[i] = CanonicalName(i)
	}
	return New(names, seed)
}

// CanonicalName returns the positional shard name Uniform uses.
func CanonicalName(i int) string { return fmt.Sprintf("shard_%03d", i) }

// Validate checks the placement for structural problems: no shards,
// empty names, or duplicate names (which would split one shard's racks
// across two indexes).
func (p Placement) Validate() error {
	if len(p.Shards) == 0 {
		return errors.New("shard: placement has no shards")
	}
	if p.Version <= 0 {
		return fmt.Errorf("shard: placement version %d; versions start at 1", p.Version)
	}
	seen := make(map[string]struct{}, len(p.Shards))
	for i, name := range p.Shards {
		if name == "" {
			return fmt.Errorf("shard: shard %d has an empty name", i)
		}
		if _, dup := seen[name]; dup {
			return fmt.Errorf("shard: duplicate shard name %q", name)
		}
		seen[name] = struct{}{}
	}
	return nil
}

// NumShards returns the shard count.
func (p Placement) NumShards() int { return len(p.Shards) }

// Name returns shard i's name.
func (p Placement) Name(i int) string { return p.Shards[i] }

// Index returns the index of the named shard, or -1 if absent.
func (p Placement) Index(name string) int {
	for i, s := range p.Shards {
		if s == name {
			return i
		}
	}
	return -1
}

// ShardOf returns the owning shard index for a rack: the shard whose
// rendezvous score for this rack is highest, ties broken toward the
// lexically smaller name so the answer never depends on list order.
func (p Placement) ShardOf(rack uint32) int {
	best := 0
	bestScore := score(p.Seed, p.Shards[0], rack)
	for i := 1; i < len(p.Shards); i++ {
		s := score(p.Seed, p.Shards[i], rack)
		if s > bestScore || (s == bestScore && p.Shards[i] < p.Shards[best]) {
			best, bestScore = i, s
		}
	}
	return best
}

// Owner returns the owning shard's name for a rack.
func (p Placement) Owner(rack uint32) string { return p.Shards[p.ShardOf(rack)] }

// WithShard returns a new generation with name appended to the shard
// list. Only racks whose highest score moves to the new shard remap.
func (p Placement) WithShard(name string) (Placement, error) {
	next := Placement{
		Version: p.Version + 1,
		Seed:    p.Seed,
		Shards:  append(append([]string(nil), p.Shards...), name),
	}
	if err := next.Validate(); err != nil {
		return Placement{}, err
	}
	return next, nil
}

// WithoutShard returns a new generation with the named shard removed.
// Only the racks that shard owned remap; every other rack keeps its
// owner (by name — indexes after the removed shard shift down).
func (p Placement) WithoutShard(name string) (Placement, error) {
	i := p.Index(name)
	if i < 0 {
		return Placement{}, fmt.Errorf("shard: removing unknown shard %q", name)
	}
	if len(p.Shards) == 1 {
		return Placement{}, fmt.Errorf("shard: removing %q would leave an empty placement", name)
	}
	shards := make([]string, 0, len(p.Shards)-1)
	shards = append(shards, p.Shards[:i]...)
	shards = append(shards, p.Shards[i+1:]...)
	next := Placement{Version: p.Version + 1, Seed: p.Seed, Shards: shards}
	if err := next.Validate(); err != nil {
		return Placement{}, err
	}
	return next, nil
}

// Equal reports whether two placements are the same generation of the
// same map.
func (p Placement) Equal(o Placement) bool {
	if p.Version != o.Version || p.Seed != o.Seed || len(p.Shards) != len(o.Shards) {
		return false
	}
	for i := range p.Shards {
		if p.Shards[i] != o.Shards[i] {
			return false
		}
	}
	return true
}

// score is the rendezvous weight of (shard, rack): FNV-1a over the
// shard name then the rack id, seeded the way ecmp.FlowKey.hash64 mixes
// a per-switch hash seed into the offset basis.
func score(seed uint64, name string, rack uint32) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset) ^ seed
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime
	}
	for i := 0; i < 4; i++ {
		h ^= (uint64(rack) >> (8 * i)) & 0xff
		h *= prime
	}
	return h
}
