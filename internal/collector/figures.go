package collector

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"slices"
	"sort"
	"sync"

	"mburst/internal/analysis"
	"mburst/internal/asic"
	"mburst/internal/simclock"
	"mburst/internal/stats"
	"mburst/internal/wire"
)

// LiveFigures is the collector-side streaming analysis tap: a
// BatchHandler middleware that feeds every ingested byte-counter sample
// through the same accumulators the offline figure pipeline uses
// (analysis.UtilState, analysis.BurstSegmenter, stats.MarkovAcc) and
// serves the running figures as JSON. Mounted on the mbcollectd debug
// mux it answers "what do the Fig 3/4/6/9 curves look like right now"
// while a campaign is still running, without a trace on disk.
//
// State is O(active series): per series it keeps the fixed-size
// utilization machinery plus the closed burst durations and gaps, which
// are sparse relative to the sample stream.
type LiveFigures struct {
	cfg LiveFiguresConfig

	mu      sync.Mutex
	samples uint64
	series  map[liveKey]*liveSeries
	// order holds every series: order[:sorted] in canonical (rack, port,
	// dir, kind) order, then the series added since, in arrival order.
	// ordered sorts those newcomers in tail, a buffer it reuses, and
	// merges them into the prefix.
	order  []*liveSeries
	sorted int
	tail   []*liveSeries
	// slots is where Handle carves its next new series from.
	slots []seriesSlot
}

// LiveFiguresConfig parameterizes the tap.
type LiveFiguresConfig struct {
	// SpeedOf returns the line rate of a port; required (utilization is
	// bytes over speed·span).
	SpeedOf func(rack uint32, port uint16) uint64
	// IsUplink classifies a port for the hot-share split; nil counts
	// every port as a downlink.
	IsUplink func(rack uint32, port uint16) bool
	// Threshold is the hot criterion; <= 0 selects
	// analysis.DefaultHotThreshold.
	Threshold float64
}

// liveKey identifies one series across racks.
type liveKey struct {
	Rack uint32
	Key  analysis.SeriesKey
}

func (k liveKey) id() seriesID {
	return seriesID{Rack: k.Rack, Port: k.Key.Port, Dir: k.Key.Dir, Kind: k.Key.Kind}
}

// utilBins is every series' utilization histogram resolution: 20 bins of
// 5% over [0,1]. Checkpoints persist the histogram as is, so a checkpoint
// with any other bin count is refused at load (histBins).
const utilBins = 20

// liveSeries is the per-series accumulator set.
type liveSeries struct {
	key       liveKey
	util      *analysis.UtilState
	seg       *analysis.BurstSegmenter
	mk        stats.MarkovAcc
	durations stats.ECDFAcc // µs, closed bursts only
	gaps      stats.ECDFAcc // µs
	moments   stats.MomentAcc
	utilHist  []uint64
	points    int
	hot       int

	// cut is the series' state as State last snapshotted it, and dirty
	// says the accumulators may have moved since. cut is only ever
	// replaced, never written through: earlier FiguresStates hold it.
	cut   *SeriesState
	dirty bool
}

// seriesSlot is one series Handle creates, with the converter,
// segmenter and histogram it points at. Handle makes them seriesChunk at
// a time: one allocation per chunk, not four per series.
type seriesSlot struct {
	series liveSeries
	util   analysis.UtilState
	seg    analysis.BurstSegmenter
	hist   [utilBins]uint64
}

const seriesChunk = 64

// newSeries carves series k, on a port of line rate speed, from the
// current chunk of slots. Caller holds f.mu.
func (f *LiveFigures) newSeries(k liveKey, speed uint64) *liveSeries {
	if len(f.slots) == 0 {
		f.slots = make([]seriesSlot, seriesChunk)
	}
	sl := &f.slots[0]
	f.slots = f.slots[1:]
	// Both constructors inline, so what they build stays on the stack and
	// is copied into the slot.
	sl.util = *analysis.NewUtilState(speed)
	sl.seg = *analysis.NewBurstSegmenter(analysis.SegmenterConfig{HotAbove: f.cfg.Threshold})
	sl.series = liveSeries{key: k, util: &sl.util, seg: &sl.seg, utilHist: sl.hist[:]}
	return &sl.series
}

// NewLiveFigures validates the config and returns a tap.
func NewLiveFigures(cfg LiveFiguresConfig) (*LiveFigures, error) {
	cfg, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	return &LiveFigures{cfg: cfg, series: make(map[liveKey]*liveSeries)}, nil
}

// resolve validates cfg and fills in its defaults.
func (cfg LiveFiguresConfig) resolve() (LiveFiguresConfig, error) {
	if cfg.SpeedOf == nil {
		return cfg, errors.New("collector: LiveFigures needs a SpeedOf function")
	}
	if cfg.Threshold <= 0 {
		cfg.Threshold = analysis.DefaultHotThreshold
	}
	return cfg, nil
}

// Wrap returns a BatchHandler that feeds b into the figures and then
// forwards to next (which may be nil).
func (f *LiveFigures) Wrap(next BatchHandler) BatchHandler {
	return func(b *wire.Batch) {
		f.Handle(b)
		if next != nil {
			next(b)
		}
	}
}

// Handle implements BatchHandler. It is safe for concurrent use.
func (f *LiveFigures) Handle(b *wire.Batch) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, s := range b.Samples {
		if s.Kind != asic.KindBytes {
			continue
		}
		f.samples++
		k := liveKey{Rack: b.Rack, Key: analysis.SeriesKey{Port: s.Port, Dir: s.Dir, Kind: s.Kind}}
		st := f.series[k]
		if st == nil {
			st = f.newSeries(k, f.cfg.SpeedOf(b.Rack, s.Port))
			f.add(st)
		}
		st.dirty = true
		p, ok, err := st.util.Feed(s)
		if err != nil || !ok {
			// Damaged series latch; the live view keeps what it had.
			continue
		}
		st.points++
		hot := p.Util > f.cfg.Threshold
		if hot {
			st.hot++
		}
		st.mk.Observe(hot)
		st.moments.Add(p.Util)
		bi := int(p.Util * float64(len(st.utilHist)))
		if bi < 0 {
			bi = 0
		}
		if bi >= len(st.utilHist) {
			bi = len(st.utilHist) - 1
		}
		st.utilHist[bi]++
		if tr, fired := st.seg.Feed(p); fired {
			switch tr.Kind {
			case analysis.SegOpen:
				if tr.HasGap {
					st.gaps.Add(float64(tr.Gap) / float64(simclock.Microsecond))
				}
			case analysis.SegClose:
				st.durations.Add(float64(tr.Burst.Duration()) / float64(simclock.Microsecond))
			}
		}
	}
}

// add registers a new series. It lands at the end of f.order, past the
// canonical prefix, for ordered to merge in. Caller holds f.mu.
func (f *LiveFigures) add(st *liveSeries) {
	f.series[st.key] = st
	f.order = append(f.order, st)
}

// ordered returns every series in canonical (rack, port, dir, kind)
// order. Only the series added since the previous call are sorted; they
// are then merged into the canonical prefix from the back in one pass,
// which moves just the prefix entries that sort after the first of them.
// Caller holds f.mu.
func (f *LiveFigures) ordered() []*liveSeries {
	if f.sorted == len(f.order) {
		return f.order
	}
	f.tail = append(f.tail[:0], f.order[f.sorted:]...)
	slices.SortFunc(f.tail, func(a, b *liveSeries) int { return a.key.id().compare(b.key.id()) })
	i, j := f.sorted, len(f.tail) // unmerged prefix is order[:i], unmerged tail is f.tail[:j]
	for k := len(f.order) - 1; j > 0; k-- {
		if i > 0 && f.order[i-1].key.id().compare(f.tail[j-1].key.id()) > 0 {
			i--
			f.order[k] = f.order[i]
		} else {
			j--
			f.order[k] = f.tail[j]
		}
	}
	clear(f.tail) // the buffer pins no series between cuts
	f.sorted = len(f.order)
	return f.order
}

// SeriesFigures is one series' running statistics in the snapshot.
type SeriesFigures struct {
	Rack uint32 `json:"rack"`
	Port uint16 `json:"port"`
	Dir  string `json:"dir"`
	// Points is the number of utilization spans computed so far.
	Points int `json:"points"`
	// HotPoints counts spans above the threshold.
	HotPoints int     `json:"hot_points"`
	MeanUtil  float64 `json:"mean_util"`
	MaxUtil   float64 `json:"max_util"`
	// UtilHist is the utilization histogram over [0,1] (last bin catches
	// >= 1).
	UtilHist []uint64 `json:"util_hist"`
	// Bursts counts closed bursts; ActiveBurst reports one still open.
	Bursts      int  `json:"bursts"`
	ActiveBurst bool `json:"active_burst"`
	// Burst duration and inter-burst gap quantiles, in µs; zero when no
	// observations yet.
	BurstP50Micros float64 `json:"burst_p50_micros"`
	BurstP99Micros float64 `json:"burst_p99_micros"`
	GapP50Micros   float64 `json:"gap_p50_micros"`
	GapP99Micros   float64 `json:"gap_p99_micros"`
}

// MarkovFigures is the merged two-state chain in the snapshot.
type MarkovFigures struct {
	Transitions int64 `json:"transitions"`
	// P01/P11 are P(hot|idle) and P(hot|hot); zero until observed.
	P01 float64 `json:"p01"`
	P11 float64 `json:"p11"`
}

// FiguresSnapshot is the JSON shape served by the handler.
type FiguresSnapshot struct {
	Threshold float64 `json:"threshold"`
	// Samples is the number of byte-counter samples consumed.
	Samples uint64          `json:"samples"`
	Series  []SeriesFigures `json:"series"`
	Markov  MarkovFigures   `json:"markov"`
	// UplinkHot/DownlinkHot split hot spans by port class (Fig 9).
	UplinkHot   int `json:"uplink_hot"`
	DownlinkHot int `json:"downlink_hot"`
}

// Snapshot returns the current running figures, series in canonical
// (rack, port, dir, kind) order for stable output: the tap's cut,
// rendered. The cut costs what changed since the last one (State), and
// the rendering runs outside the tap's lock.
func (f *LiveFigures) Snapshot() FiguresSnapshot { return render(f.cfg, f.State()) }

// RenderFigures renders a figures cut — a tap's State, a fleet merge, a
// loaded checkpoint's figures — as a tap configured by cfg serves it after
// restoring the cut: bit for bit what RestoreState then Snapshot return,
// without building the tap. A cut lists each series once; one that lists
// a series twice is not one (LoadCheckpoint and the fleet merge refuse
// it). The error is cfg's, as NewLiveFigures reports it.
func RenderFigures(cfg LiveFiguresConfig, st FiguresState) (FiguresSnapshot, error) {
	cfg, err := cfg.resolve()
	if err != nil {
		return FiguresSnapshot{}, err
	}
	return render(cfg, st), nil
}

// render is the one renderer: every derived statistic of the served
// figures, series by series off their SeriesStates. The accumulators a
// statistic needs are rebuilt on the stack from their snapshots, so each
// float comes out of the code a live tap would run. It allocates the
// series list, the Markov fits, one slab for every histogram and one
// scratch buffer the quantiles of every series are read in. cfg is
// resolved.
func render(cfg LiveFiguresConfig, st FiguresState) FiguresSnapshot {
	snap := FiguresSnapshot{Threshold: cfg.Threshold, Samples: st.Samples}
	series := canonicalOrder(st.Series)
	hists, most := 0, 0
	for _, s := range series {
		hists += histLen(s)
		most = max(most, len(s.Durations.Values), len(s.Gaps.Values))
	}
	if len(series) > 0 {
		snap.Series = make([]SeriesFigures, 0, len(series))
	}
	hist, scratch := make([]uint64, hists), make([]float64, most)
	models := make([]stats.MarkovModel, 0, len(series))
	for _, s := range series {
		sf := SeriesFigures{
			Rack:        s.Rack,
			Port:        s.Port,
			Dir:         s.Dir.String(),
			Points:      s.Points,
			HotPoints:   s.Hot,
			Bursts:      len(s.Durations.Values),
			ActiveBurst: s.Seg.Active,
		}
		// A series without a histogram gets an empty one, as RestoreState
		// gives a series Handle could not feed.
		n := histLen(s)
		sf.UtilHist, hist = hist[:n:n], hist[n:]
		copy(sf.UtilHist, s.UtilHist)
		var moments stats.MomentAcc
		moments.Restore(s.Moments)
		if moments.N() > 0 {
			sf.MeanUtil = moments.Mean()
			sf.MaxUtil = moments.Max()
		}
		if vs := s.Durations.Values; len(vs) > 0 {
			sf.BurstP50Micros, sf.BurstP99Micros = p50p99(scratch, vs)
		}
		if vs := s.Gaps.Values; len(vs) > 0 {
			sf.GapP50Micros, sf.GapP99Micros = p50p99(scratch, vs)
		}
		snap.Series = append(snap.Series, sf)
		var mk stats.MarkovAcc
		mk.Restore(s.Markov)
		models = append(models, mk.Model())
		if cfg.IsUplink != nil && cfg.IsUplink(s.Rack, s.Port) {
			snap.UplinkHot += s.Hot
		} else {
			snap.DownlinkHot += s.Hot
		}
	}
	m := stats.MergeMarkov(models...)
	snap.Markov.Transitions = m.N
	if !math.IsNaN(m.P[0][1]) {
		snap.Markov.P01 = m.P[0][1]
	}
	if !math.IsNaN(m.P[1][1]) {
		snap.Markov.P11 = m.P[1][1]
	}
	return snap
}

// p50p99 returns the 50th and 99th percentiles of the non-empty vs by
// nearest rank, exactly as stats.NewECDF(vs).Quantile does: it sorts a
// copy with the same sort, in scratch, which must hold len(vs) values.
func p50p99(scratch, vs []float64) (p50, p99 float64) {
	sorted := scratch[:len(vs)]
	copy(sorted, vs)
	sort.Float64s(sorted)
	return nearestRank(sorted, 0.5), nearestRank(sorted, 0.99)
}

// nearestRank is the q-th quantile, 0 < q < 1, of the non-empty sorted:
// the ⌈q·n⌉-th smallest value.
func nearestRank(sorted []float64, q float64) float64 {
	return sorted[int(math.Ceil(q*float64(len(sorted))))-1]
}

// ServeHTTP implements http.Handler, answering GETs with the JSON
// snapshot — the mbcollectd /figures endpoint.
func (f *LiveFigures) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(f.Snapshot()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
