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
// A Placement is explicit and versioned, and campaign metadata
// (campaign.json) records it whole, so an archive names exactly which
// map produced it. New and Uniform make version 1; nothing edits
// membership yet (elastic resharding is parked), and Version stays
// because the placements campaign.json files already carry have it.
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
	// Version counts membership generations, from 1. Two placements with
	// the same Version, Seed and Shards are interchangeable.
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
