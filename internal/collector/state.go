package collector

import (
	"cmp"
	"slices"

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
	slices.SortFunc(out, func(a, b RackEpochState) int { return cmp.Compare(a.Rack, b.Rack) })
	return out
}

// install makes racks the gate's per-rack state. A restored gate applies
// the same stale-epoch and time-regression rules it would have applied
// had it never stopped — the property that lets a resumed collector drop
// retransmitted duplicates.
func (g *EpochGate) install(racks map[uint32]*rackEpoch) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.racks = racks
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
// and never writes to one it has handed out — and consumers must not
// write through Series[i], its fields or its slices either: restore and
// merge copy, and anything else that wants to edit a cut copies the
// SeriesState first and points Series[i] at the copy.
//
// Two facts about a tap's cuts follow from how State makes them. Its
// Durations and Gaps values are the accumulators' own, shared rather
// than copied: the tap only ever appends past them, and every slice of a
// cut has cap == len, so a consumer's append reallocates instead of
// writing into the tap. And its SeriesStates and histograms come from
// slabs of at most cutSlabSeries series, so one SeriesState that stays
// in use — a series that is no longer fed keeps its last one — keeps its
// slab's other, superseded, entries alive too: at most cutSlabSeries-1 of
// them. A rack's series are fed together, so a rack that goes quiet pins
// about one slab.
type FiguresState struct {
	Samples uint64         `json:"samples"`
	Series  []*SeriesState `json:"series,omitempty"`
}

// cutSlabSeries is the most series one cut slab holds: what bounds the
// memory a quiet series can pin (see FiguresState).
const cutSlabSeries = 64

// State cuts the tap's accumulator state, series in canonical (rack,
// port, dir, kind) order. A cut costs what changed, not what exists:
// only series fed since the previous cut are re-snapshotted, the others
// reuse the SeriesState the previous cut pointed at, and the result is
// one pointer per series (see FiguresState for the sharing contract).
// The fed series are snapshotted into slabs, two allocations per
// cutSlabSeries of them.
func (f *LiveFigures) State() FiguresState {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := FiguresState{Samples: f.samples}
	series := f.ordered()
	if len(series) == 0 {
		return st
	}
	st.Series = make([]*SeriesState, len(series))
	var sl cutSlab
	for i, s := range series {
		if s.dirty {
			if len(sl.states) == 0 {
				sl = newCutSlab(series[i:])
			}
			s.cut = sl.snapshot(s)
			s.dirty = false
		}
		st.Series[i] = s.cut
	}
	return st
}

// cutSlab is what a cut snapshots its next fed series into: their
// SeriesStates and their histograms, one allocation each.
type cutSlab struct {
	states []SeriesState
	hist   []uint64
}

// newCutSlab sizes a slab for the first cutSlabSeries fed series of
// rest, or all of them if there are fewer.
func newCutSlab(rest []*liveSeries) cutSlab {
	n, hist := 0, 0
	for _, s := range rest {
		if s.dirty {
			n++
			hist += len(s.utilHist)
			if n == cutSlabSeries {
				break
			}
		}
	}
	return cutSlab{states: make([]SeriesState, n), hist: make([]uint64, hist)}
}

// snapshot takes the slab's next SeriesState and fills it with s's
// accumulators: the histogram copied, with cap == len, the ECDF values
// shared (see FiguresState).
func (sl *cutSlab) snapshot(s *liveSeries) *SeriesState {
	n := len(s.utilHist)
	hist := sl.hist[:n:n]
	sl.hist = sl.hist[n:]
	copy(hist, s.utilHist)
	ss := &sl.states[0]
	sl.states = sl.states[1:]
	*ss = SeriesState{
		Rack: s.key.Rack, Port: s.key.Key.Port, Dir: s.key.Key.Dir, Kind: s.key.Key.Kind,
		Util:      s.util.Snapshot(),
		Seg:       s.seg.Snapshot(),
		Markov:    s.mk.Snapshot(),
		Durations: sharedValues(&s.durations),
		Gaps:      sharedValues(&s.gaps),
		Moments:   s.moments.Snapshot(),
		UtilHist:  hist,
		Points:    s.points,
		Hot:       s.hot,
	}
	return ss
}

// sharedValues is a's snapshot without the copy: its values so far, with
// cap == len, or nil for none, as ECDFAcc.Snapshot gives. The
// accumulator only ever appends past them, so they never change.
func sharedValues(a *stats.ECDFAcc) stats.ECDFAccSnap {
	vs := a.Values()
	if len(vs) == 0 {
		return stats.ECDFAccSnap{}
	}
	return stats.ECDFAccSnap{Values: vs[:len(vs):len(vs)]}
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
	hists, values := 0, 0
	for _, s := range st.Series {
		hists += histLen(s)
		values += len(s.Durations.Values) + len(s.Gaps.Values)
	}
	sl := newRestoreSlabs(len(st.Series), hists, values)
	series := make([]*liveSeries, len(st.Series))
	for i, s := range st.Series {
		series[i] = sl.restore(s)
	}
	f.install(st.Samples, series)
}

// histLen is the histogram a restored series gets: its own, or an empty
// one of utilBins bins for a series Handle could not feed.
func histLen(s *SeriesState) int {
	if len(s.UtilHist) == 0 {
		return utilBins
	}
	return len(s.UtilHist)
}

// restoreSlabs are what a restore cuts its series from — one allocation
// per kind of part, not several per series: the series, their converters
// and segmenters, histograms and ECDF values. Slices are cut with cap ==
// len, so that a later append reallocates instead of writing into a
// neighbour. hist holds every histogram the restore will cut. vals is
// sized exactly by a restore that knows its total, and otherwise grows as
// the restore goes, in doubling chunks.
type restoreSlabs struct {
	series []liveSeries
	utils  []analysis.UtilState
	segs   []analysis.BurstSegmenter
	hist   []uint64
	vals   []float64
	chunk  int // the size of the last vals chunk made as the restore went
}

func newRestoreSlabs(n, hists, values int) restoreSlabs {
	return restoreSlabs{
		series: make([]liveSeries, n),
		utils:  make([]analysis.UtilState, n),
		segs:   make([]analysis.BurstSegmenter, n),
		hist:   make([]uint64, hists),
		vals:   make([]float64, values),
	}
}

// restore rebuilds the next series from s, which it copies out of and
// keeps none of. It takes at most as many series and histogram bins as
// the slabs were made for.
func (sl *restoreSlabs) restore(s *SeriesState) *liveSeries {
	n := histLen(s)
	if v := len(s.Durations.Values) + len(s.Gaps.Values); len(sl.vals) < v {
		sl.chunk = max(v, 2*sl.chunk, 256)
		sl.vals = make([]float64, sl.chunk)
	}
	ls, util, seg := &sl.series[0], &sl.utils[0], &sl.segs[0]
	sl.series, sl.utils, sl.segs = sl.series[1:], sl.utils[1:], sl.segs[1:]
	// Both constructors inline, so what they build stays on the stack and
	// is copied into its slab.
	*util = *analysis.RestoreUtilState(s.Util)
	*seg = *analysis.RestoreBurstSegmenter(s.Seg)
	*ls = liveSeries{
		key:      liveKey{Rack: s.Rack, Key: analysis.SeriesKey{Port: s.Port, Dir: s.Dir, Kind: s.Kind}},
		util:     util,
		seg:      seg,
		utilHist: sl.hist[:n:n],
		points:   s.Points,
		hot:      s.Hot,
		dirty:    true,
	}
	copy(ls.utilHist, s.UtilHist)
	sl.hist = sl.hist[n:]
	ls.mk.Restore(s.Markov)
	sl.vals = ls.durations.Restore(s.Durations, sl.vals)
	sl.vals = ls.gaps.Restore(s.Gaps, sl.vals)
	ls.moments.Restore(s.Moments)
	return ls
}

// install makes series the tap's state, in the order given, with samples
// consumed; a series listed twice keeps its first place and its last
// state. It takes series over as its order table.
func (f *LiveFigures) install(samples uint64, series []*liveSeries) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.samples = samples
	f.series = make(map[liveKey]*liveSeries, len(series))
	f.slots = nil        // its free slots would keep the replaced series alive
	f.order = series[:0] // each series lands at or before where it is read
	f.sorted = 0
	for _, ls := range series {
		if old := f.series[ls.key]; old != nil {
			*old = *ls
			continue
		}
		f.add(ls)
	}
}

// install makes the counters and perRack the ingest accounting. Call
// before Attach so the registry mirror carries the restored totals
// forward.
func (s *IngestStats) install(batches, samples uint64, lastSampleNanos int64, perRack map[uint32]uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.batches = batches
	s.samples = samples
	s.lastSample = simclock.Time(lastSampleNanos)
	s.perRack = perRack
}
