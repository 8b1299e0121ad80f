package collector

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"mburst/internal/analysis"
	"mburst/internal/asic"
)

// This file is the fleet-merge layer: the pure-state operations the
// Aggregator uses to fold shard-local accumulator snapshots into the
// fleet-wide view. The operations are exact, not approximate, because
// the shard placement (internal/shard) assigns every rack to exactly
// one shard: each (rack, port, dir, kind) series is owned by a single
// shard, so merging FiguresStates is a disjoint sorted union and
// merging ingest snapshots is plain addition. A duplicate series is not
// a merge conflict to resolve — it is a placement violation to report.

// seriesID orders and identifies a series across shards.
type seriesID struct {
	Rack uint32
	Port uint16
	Dir  asic.Direction
	Kind asic.CounterKind
}

func (s *SeriesState) id() seriesID {
	return seriesID{Rack: s.Rack, Port: s.Port, Dir: s.Dir, Kind: s.Kind}
}

// compare orders series by rack, port, dir, kind.
func (a seriesID) compare(b seriesID) int {
	if c := cmp.Compare(a.Rack, b.Rack); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Port, b.Port); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Dir, b.Dir); c != 0 {
		return c
	}
	return cmp.Compare(a.Kind, b.Kind)
}

func (a seriesID) less(b seriesID) bool { return a.compare(b) < 0 }

func (s seriesID) String() string {
	return fmt.Sprintf("rack %d %s", s.Rack,
		analysis.SeriesKey{Port: s.Port, Dir: s.Dir, Kind: s.Kind}.String())
}

// MergeFiguresStates unions shard-local figure states into the fleet
// state: series in the canonical (rack, port, dir, kind) order
// LiveFigures.State emits, sample totals summed. Every input is already
// in that order (an input that is not — a hand-edited checkpoint — is
// sorted first), so the union is a k-way merge over the shard count.
// Because a rack's series live on exactly one shard, the union is
// disjoint; a series appearing twice means two shards ingested the same
// rack and the merged state would double-count, so that is an error, not
// a fold.
//
// Inputs' Series entries must be non-nil, as every cut and every loaded
// checkpoint's are. The result points at the inputs' SeriesStates: it is
// a cut like them, under FiguresState's sharing contract.
func MergeFiguresStates(states ...FiguresState) (FiguresState, error) {
	var out FiguresState
	rest := make([][]*SeriesState, 0, len(states)) // each input's unmerged tail
	n := 0
	for _, st := range states {
		out.Samples += st.Samples
		if len(st.Series) > 0 {
			rest = append(rest, canonicalOrder(st.Series))
			n += len(st.Series)
		}
	}
	if n > 0 {
		out.Series = make([]*SeriesState, 0, n)
	}
	for len(rest) > 0 {
		lo := 0
		for i := 1; i < len(rest); i++ {
			if rest[i][0].id().less(rest[lo][0].id()) {
				lo = i
			}
		}
		if k := len(out.Series); k > 0 && out.Series[k-1].id() == rest[lo][0].id() {
			return FiguresState{}, fmt.Errorf(
				"collector: series %s claimed by two shards (placement violation)",
				rest[lo][0].id())
		}
		out.Series = append(out.Series, rest[lo][0])
		if rest[lo] = rest[lo][1:]; len(rest[lo]) == 0 {
			rest = append(rest[:lo], rest[lo+1:]...)
		}
	}
	return out, nil
}

// canonicalOrder returns series in (rack, port, dir, kind) order: the
// slice itself when it already is, a sorted copy otherwise.
func canonicalOrder(series []*SeriesState) []*SeriesState {
	byID := func(a, b *SeriesState) int { return a.id().compare(b.id()) }
	if slices.IsSortedFunc(series, byID) {
		return series
	}
	series = slices.Clone(series)
	slices.SortFunc(series, byID)
	return series
}

// MergeSnapshots sums shard-local ingest snapshots into fleet totals.
// Batch and sample counts add; per-rack counts union (summing if a rack
// somehow appears on two shards — ingest accounting is additive even
// when figures would conflict); the newest-sample watermark is the max.
func MergeSnapshots(snaps ...Snapshot) Snapshot {
	var out Snapshot
	perRack := make(map[uint32]uint64)
	for _, s := range snaps {
		out.Batches += s.Batches
		out.Samples += s.Samples
		if s.LastSampleNanos > out.LastSampleNanos {
			out.LastSampleNanos = s.LastSampleNanos
		}
		for _, rc := range s.PerRack {
			perRack[rc.Rack] += rc.Samples
		}
	}
	if len(perRack) > 0 {
		out.PerRack = make([]RackCount, 0, len(perRack))
		for rack, n := range perRack {
			out.PerRack = append(out.PerRack, RackCount{Rack: rack, Samples: n})
		}
		sort.Slice(out.PerRack, func(i, j int) bool { return out.PerRack[i].Rack < out.PerRack[j].Rack })
	}
	return out
}
