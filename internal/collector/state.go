package collector

import (
	"sort"

	"mburst/internal/analysis"
	"mburst/internal/asic"
	"mburst/internal/simclock"
	"mburst/internal/stats"
)

// This file gives the collector's stateful middleware an explicit,
// JSON-serializable state surface — the raw material the checkpointer
// (checkpoint.go) persists. The shapes mirror internal/stats and
// internal/analysis snapshots: raw state only, deterministic ordering
// (maps flatten to sorted slices), and restore rebuilds an instance that
// continues bit-identically to one that never stopped.

// RackEpochState is one rack's epoch-gate admission state.
type RackEpochState struct {
	Rack     uint32        `json:"rack"`
	Epoch    uint32        `json:"epoch"`
	LastTime simclock.Time `json:"last_time"`
	Seen     bool          `json:"seen"`
}

// State captures the gate's per-rack admission state, sorted by rack.
func (g *EpochGate) State() []RackEpochState {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]RackEpochState, 0, len(g.racks))
	for rack, st := range g.racks {
		out = append(out, RackEpochState{Rack: rack, Epoch: st.epoch, LastTime: st.lastTime, Seen: st.seen})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rack < out[j].Rack })
	return out
}

// RestoreState replaces the gate's per-rack state with a snapshot. A
// restored gate applies the same stale-epoch and time-regression rules
// it would have applied had it never stopped — the property that lets a
// resumed collector drop retransmitted duplicates.
func (g *EpochGate) RestoreState(state []RackEpochState) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.racks = make(map[uint32]*rackEpoch, len(state))
	for _, st := range state {
		g.racks[st.Rack] = &rackEpoch{epoch: st.Epoch, lastTime: st.LastTime, seen: st.Seen}
	}
}

// SeriesState is one live-figures series' full accumulator state.
type SeriesState struct {
	Rack uint32           `json:"rack"`
	Port uint16           `json:"port"`
	Dir  asic.Direction   `json:"dir"`
	Kind asic.CounterKind `json:"kind"`

	Util      analysis.UtilSnap      `json:"util"`
	Seg       analysis.SegmenterSnap `json:"seg"`
	Markov    stats.MarkovAccSnap    `json:"markov"`
	Durations stats.ECDFAccSnap      `json:"durations"`
	Gaps      stats.ECDFAccSnap      `json:"gaps"`
	Moments   stats.MomentAccSnap    `json:"moments"`
	UtilHist  []uint64               `json:"util_hist"`
	Points    int                    `json:"points"`
	Hot       int                    `json:"hot"`
}

// FiguresState is the live-figures tap's full state: everything Handle
// has accumulated, nothing derived. (Snapshot() is the *rendered* view —
// quantiles and probabilities — and cannot be restored; this is the raw
// one that can.)
//
// A FiguresState is an immutable cut, and a list of pointers. Entries
// are never nil. Consecutive cuts of one tap hold the very same
// *SeriesState for every series that was not fed in between (merges and
// aggregator updates pass those pointers on too), so a cut, once
// returned, never changes — the tap gives a fed series a new SeriesState
// with fresh slices and never writes to one it has handed out — and
// consumers must not write through Series[i], its fields or its slices
// either: restore and merge copy, and anything else that wants to edit
// a cut copies the SeriesState first and points Series[i] at the copy.
type FiguresState struct {
	Samples uint64         `json:"samples"`
	Series  []*SeriesState `json:"series,omitempty"`
}

// State cuts the tap's accumulator state, series in canonical (rack,
// port, dir, kind) order. A cut costs what changed, not what exists:
// only series fed since the previous cut are re-snapshotted, the others
// reuse the SeriesState the previous cut pointed at, and the result is
// one pointer per series (see FiguresState for the sharing contract).
func (f *LiveFigures) State() FiguresState {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := FiguresState{Samples: f.samples}
	series := f.ordered()
	if len(series) == 0 {
		return st
	}
	st.Series = make([]*SeriesState, len(series))
	for i, s := range series {
		if s.dirty {
			s.cut = s.snapshot()
			s.dirty = false
		}
		st.Series[i] = s.cut
	}
	return st
}

// snapshot copies the series' accumulators into a new SeriesState that
// shares no memory with them.
func (s *liveSeries) snapshot() *SeriesState {
	return &SeriesState{
		Rack: s.key.Rack, Port: s.key.Key.Port, Dir: s.key.Key.Dir, Kind: s.key.Key.Kind,
		Util:      s.util.Snapshot(),
		Seg:       s.seg.Snapshot(),
		Markov:    s.mk.Snapshot(),
		Durations: s.durations.Snapshot(),
		Gaps:      s.gaps.Snapshot(),
		Moments:   s.moments.Snapshot(),
		UtilHist:  append([]uint64(nil), s.utilHist...),
		Points:    s.points,
		Hot:       s.hot,
	}
}

// RestoreState replaces the tap's accumulator state with a snapshot. The
// per-series snapshots carry their own configuration (line rate inside
// the UtilSnap, thresholds inside the SegmenterSnap, histogram
// resolution as the length of UtilHist), so restore never consults the
// config callbacks — a restored tap continues exactly where the snapshot
// left off even if SpeedOf would now answer differently. The one
// exception is a series without a histogram, which Handle could not
// feed: it gets an empty one of utilBins bins. st's Series
// entries must be non-nil (LoadCheckpoint refuses a file with a null
// one); restore copies out of them and keeps none. It allocates per
// kind of part, not per series (TestRestoreStateAllocatesPerSlab).
func (f *LiveFigures) RestoreState(st FiguresState) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.samples = st.Samples
	f.series = make(map[liveKey]*liveSeries, len(st.Series))
	f.order = make([]*liveSeries, 0, len(st.Series))
	f.sorted = 0
	// One allocation per kind of part, not several per series: the
	// series, their converters and segmenters, histograms and ECDF values
	// are cut from slabs, the slices with cap == len so that a later
	// append reallocates instead of writing into a neighbour.
	histLen := func(s *SeriesState) int {
		if len(s.UtilHist) == 0 {
			return utilBins // a series Handle could not feed gets an empty one
		}
		return len(s.UtilHist)
	}
	hists, values := 0, 0
	for _, s := range st.Series {
		hists += histLen(s)
		values += len(s.Durations.Values) + len(s.Gaps.Values)
	}
	series := make([]liveSeries, len(st.Series))
	utils := make([]analysis.UtilState, len(st.Series))
	segs := make([]analysis.BurstSegmenter, len(st.Series))
	hist := make([]uint64, hists)
	vals := make([]float64, values)
	for i, s := range st.Series {
		// Both constructors inline, so what they build stays on the stack
		// and is copied into its slab.
		utils[i] = *analysis.RestoreUtilState(s.Util)
		segs[i] = *analysis.RestoreBurstSegmenter(s.Seg)
		n := histLen(s)
		ls := &series[i]
		*ls = liveSeries{
			key:      liveKey{Rack: s.Rack, Key: analysis.SeriesKey{Port: s.Port, Dir: s.Dir, Kind: s.Kind}},
			util:     &utils[i],
			seg:      &segs[i],
			utilHist: hist[:n:n],
			points:   s.Points,
			hot:      s.Hot,
			dirty:    true,
		}
		copy(ls.utilHist, s.UtilHist)
		hist = hist[n:]
		ls.mk.Restore(s.Markov)
		vals = ls.durations.Restore(s.Durations, vals)
		vals = ls.gaps.Restore(s.Gaps, vals)
		ls.moments.Restore(s.Moments)
		if old := f.series[ls.key]; old != nil {
			*old = *ls // a series listed twice: the last one wins
			continue
		}
		f.add(ls)
	}
}

// Restore replaces the ingest counters with a snapshot. Call before
// Attach so the registry mirror carries the restored totals forward.
func (s *IngestStats) Restore(snap Snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.batches = snap.Batches
	s.samples = snap.Samples
	s.lastSample = simclock.Time(snap.LastSampleNanos)
	s.perRack = make(map[uint32]uint64, len(snap.PerRack))
	for _, rc := range snap.PerRack {
		s.perRack[rc.Rack] = rc.Samples
	}
}
