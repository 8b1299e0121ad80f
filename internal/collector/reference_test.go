package collector

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// This file holds the reference implementations the incremental paths
// are checked against: the bodies LiveFigures.State, its series order
// and MergeFiguresStates had before a cut cost O(series fed since the
// last one), moved here. They are slow and obviously right — walk
// everything, snapshot everything, sort everything — and they consult
// none of the bookkeeping (order, dirty marks, cached cuts) the fast
// paths rely on.

// refSaveCheckpointJSON writes st the way the checkpoint writer did
// before MBC1 (one line of compact JSON). Shipping code only reads this form; the
// writer lives on here to manufacture legacy inputs.
func refSaveCheckpointJSON(path string, st CheckpointState) error {
	data, err := json.Marshal(st)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// refFiguresState is the full re-snapshot: every series of f.series,
// sorted by rack, port, dir, kind, each accumulator snapshotted anew.
func refFiguresState(f *LiveFigures) FiguresState {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := FiguresState{Samples: f.samples}
	keys := make([]liveKey, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Rack != b.Rack {
			return a.Rack < b.Rack
		}
		if a.Key.Port != b.Key.Port {
			return a.Key.Port < b.Key.Port
		}
		if a.Key.Dir != b.Key.Dir {
			return a.Key.Dir < b.Key.Dir
		}
		return a.Key.Kind < b.Key.Kind
	})
	for _, k := range keys {
		s := f.series[k]
		st.Series = append(st.Series, &SeriesState{
			Rack: k.Rack, Port: k.Key.Port, Dir: k.Key.Dir, Kind: k.Key.Kind,
			Util:      s.util.Snapshot(),
			Seg:       s.seg.Snapshot(),
			Markov:    s.mk.Snapshot(),
			Durations: s.durations.Snapshot(),
			Gaps:      s.gaps.Snapshot(),
			Moments:   s.moments.Snapshot(),
			UtilHist:  append([]uint64(nil), s.utilHist...),
			Points:    s.points,
			Hot:       s.hot,
		})
	}
	return st
}

// refOrdered is LiveFigures.ordered before it merged: every series of
// f.series, the whole table sorted.
func refOrdered(f *LiveFigures) []*liveSeries {
	f.mu.Lock()
	defer f.mu.Unlock()
	order := make([]*liveSeries, 0, len(f.series))
	for _, s := range f.series {
		order = append(order, s)
	}
	sort.Slice(order, func(i, j int) bool { return order[i].key.id().less(order[j].key.id()) })
	return order
}

// refMergeFiguresStates is the concatenate-and-sort union.
func refMergeFiguresStates(states ...FiguresState) (FiguresState, error) {
	var out FiguresState
	n := 0
	for _, st := range states {
		n += len(st.Series)
	}
	if n > 0 {
		out.Series = make([]*SeriesState, 0, n)
	}
	for _, st := range states {
		out.Samples += st.Samples
		out.Series = append(out.Series, st.Series...)
	}
	sort.Slice(out.Series, func(i, j int) bool {
		return out.Series[i].id().less(out.Series[j].id())
	})
	for i := 1; i < len(out.Series); i++ {
		if out.Series[i].id() == out.Series[i-1].id() {
			return FiguresState{}, fmt.Errorf(
				"collector: series %s claimed by two shards (placement violation)",
				out.Series[i].id())
		}
	}
	return out, nil
}
