package analysis

import (
	"fmt"
	"sort"

	"mburst/internal/asic"
	"mburst/internal/simclock"
	"mburst/internal/wire"
)

// This file is the analysis engine: single-pass, per-series state
// machines that consume wire.Samples as they arrive (from a live
// collector ingest tap, a campaign's figure runners in internal/core, or
// trace.Reader.IterWindow). They are the only implementation of each
// per-series algorithm — the few slice-taking functions the package
// keeps for callers that hold a slice feed them — and reference_test.go
// keeps an independent slice implementation of each that they are
// compared against bit for bit, error text included.

// SortedKeys returns the keys of a SeriesKey-keyed map in deterministic
// order: Port, then Dir, then Kind. Every range over a Split result (or
// any other map keyed by SeriesKey) must go through it — ranging such a
// map directly is nondeterministic and flagged by mblint's mapiter rule.
func SortedKeys[V any](m map[SeriesKey]V) []SeriesKey {
	keys := make([]SeriesKey, 0, len(m))
	//lint:ignore mapiter SortedKeys is the sanctioned collection point; order is fixed by the sort below
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Port != b.Port {
			return a.Port < b.Port
		}
		if a.Dir != b.Dir {
			return a.Dir < b.Dir
		}
		return a.Kind < b.Kind
	})
	return keys
}

// SampleSink consumes one sample of a single series.
type SampleSink func(wire.Sample) error

// SeriesDemux routes a mixed sample stream to per-series sinks — the
// streaming counterpart of Split. open is called once per new SeriesKey
// and returns the sink for that series; a nil sink discards the series
// (the streaming analogue of ignoring a Split map entry).
type SeriesDemux struct {
	open  func(SeriesKey) SampleSink
	sinks map[SeriesKey]SampleSink
}

// NewSeriesDemux returns a demux creating per-series sinks via open.
func NewSeriesDemux(open func(SeriesKey) SampleSink) *SeriesDemux {
	return &SeriesDemux{open: open, sinks: make(map[SeriesKey]SampleSink)}
}

// Feed routes one sample to its series sink.
func (d *SeriesDemux) Feed(s wire.Sample) error {
	k := SeriesKey{Port: s.Port, Dir: s.Dir, Kind: s.Kind}
	sink, ok := d.sinks[k]
	if !ok {
		sink = d.open(k)
		d.sinks[k] = sink
	}
	if sink == nil {
		return nil
	}
	return sink(s)
}

// FeedBatch routes every sample of a wire batch in order.
func (d *SeriesDemux) FeedBatch(b *wire.Batch) error {
	for _, s := range b.Samples {
		if err := d.Feed(s); err != nil {
			return err
		}
	}
	return nil
}

// UtilState is the engine behind UtilizationSeries: feed cumulative
// byte-counter samples one at a time and receive a UtilPoint per
// successive pair. Close reports the short-series error, which outranks
// every Feed error a series of fewer than two samples could raise.
// Errors latch: once Feed fails, further calls return the same error.
type UtilState struct {
	speedBps uint64
	n        int
	prev     wire.Sample
	err      error
}

// NewUtilState returns a streaming utilization converter for a port with
// the given line rate.
func NewUtilState(speedBps uint64) *UtilState {
	return &UtilState{speedBps: speedBps}
}

// Feed consumes the next sample. The returned bool reports whether a
// point was emitted (the first sample emits nothing).
//
// Per sample on the streaming figure path: allocation-free
// (TestUtilStateFeedAllocatesNothing).
func (u *UtilState) Feed(s wire.Sample) (UtilPoint, bool, error) {
	if u.err != nil {
		return UtilPoint{}, false, u.err
	}
	if u.n == 0 {
		u.prev = s
		u.n = 1
		return UtilPoint{}, false, nil
	}
	// The batch path validates the speed once it knows the series has >= 2
	// samples, before looking at any pair — mirror that precedence here.
	if u.speedBps == 0 {
		u.err = fmt.Errorf("analysis: zero port speed")
		return UtilPoint{}, false, u.err
	}
	i := u.n
	u.n++
	span := s.Time.Sub(u.prev.Time)
	if span <= 0 {
		u.err = fmt.Errorf("analysis: non-increasing timestamps at %d", i)
		return UtilPoint{}, false, u.err
	}
	if s.Value < u.prev.Value {
		u.err = fmt.Errorf("analysis: byte counter regressed at %d", i)
		return UtilPoint{}, false, u.err
	}
	bits := float64(s.Value-u.prev.Value) * 8
	p := UtilPoint{
		Start: u.prev.Time,
		End:   s.Time,
		Util:  bits / (float64(u.speedBps) * span.Seconds()),
	}
	u.prev = s
	return p, true, nil
}

// N returns the number of samples fed so far.
func (u *UtilState) N() int { return u.n }

// Close finalizes the series: it returns any latched Feed error, or the
// short-series error when fewer than two samples arrived.
func (u *UtilState) Close() error {
	if u.err != nil {
		return u.err
	}
	if u.n < 2 {
		return fmt.Errorf("analysis: need >= 2 samples, have %d", u.n)
	}
	return nil
}

// GapAwareState is the engine behind GapAwareUtilization. It retains the
// reconstructed spans (32 bytes per span, versus 72 per wire.Sample)
// because the catch-up merge can cascade arbitrarily far back, so the
// output is not final until Finish.
//
// On multiply-damaged input the error names the first damage met in
// sample order. (A dedup-the-whole-series-first formulation, kept as the
// test reference, would let a late duplicate conflict outrank an early
// regression; the two always agree on whether reconstruction fails.)
type GapAwareState struct {
	speedBps uint64
	st       GapStats
	first    wire.Sample
	prev     wire.Sample
	clean    int
	out      []UtilPoint
	bytes    []uint64
	err      error
}

// NewGapAwareState returns a streaming reconstructor for a port with the
// given line rate.
func NewGapAwareState(speedBps uint64) *GapAwareState {
	g := &GapAwareState{speedBps: speedBps}
	if speedBps == 0 {
		g.err = fmt.Errorf("analysis: zero port speed")
	}
	return g
}

// Feed consumes the next (possibly damaged) sample. Errors latch.
//
// Per sample on the streaming figure path: amortized slice growth only
// (TestGapAwareStateFeedAllocatesNothing).
func (g *GapAwareState) Feed(s wire.Sample) error {
	if g.err != nil {
		return g.err
	}
	if g.clean == 0 {
		g.first, g.prev = s, s
		g.clean = 1
		return nil
	}
	if s.Time == g.prev.Time {
		if s.Value != g.prev.Value {
			g.err = fmt.Errorf("analysis: duplicate timestamp %v with conflicting values %d vs %d",
				s.Time, g.prev.Value, s.Value)
			return g.err
		}
		g.st.Duplicates++
		return nil
	}
	i := g.clean
	g.clean++
	if s.Time < g.prev.Time {
		g.err = fmt.Errorf("analysis: timestamps regress at %d", i)
		return g.err
	}
	if s.Value < g.prev.Value {
		g.err = fmt.Errorf("analysis: byte counter regressed at %d", i)
		return g.err
	}
	if s.Missed > 0 {
		g.st.MissedSpans++
	}
	delta := s.Value - g.prev.Value
	g.out = append(g.out, UtilPoint{Start: g.prev.Time, End: s.Time, Util: spanUtil(delta, s.Time.Sub(g.prev.Time), g.speedBps)})
	g.bytes = append(g.bytes, delta)
	for len(g.out) > 1 && g.out[len(g.out)-1].Util > maxPhysicalUtil {
		a, b := g.out[len(g.out)-2], g.out[len(g.out)-1]
		merged := g.bytes[len(g.bytes)-2] + g.bytes[len(g.bytes)-1]
		g.out = g.out[:len(g.out)-1]
		g.bytes = g.bytes[:len(g.bytes)-1]
		g.out[len(g.out)-1] = UtilPoint{Start: a.Start, End: b.End, Util: spanUtil(merged, b.End.Sub(a.Start), g.speedBps)}
		g.bytes[len(g.bytes)-1] = merged
		g.st.Merged++
	}
	g.prev = s
	return nil
}

// Finish finalizes the reconstruction. On error the returned stats are
// whatever was tallied before the damage.
func (g *GapAwareState) Finish() ([]UtilPoint, GapStats, error) {
	if g.err != nil {
		return nil, g.st, g.err
	}
	if g.clean < 2 {
		return nil, g.st, fmt.Errorf("analysis: need >= 2 distinct samples, have %d", g.clean)
	}
	g.st.Points = len(g.out)
	g.st.Bytes = g.prev.Value - g.first.Value
	return g.out, g.st, nil
}

// SegKind labels a BurstSegmenter transition.
type SegKind int

const (
	// SegOpen marks a burst opening (the hot run reached ArmAfter).
	SegOpen SegKind = iota
	// SegClose marks a burst closing (the cold run reached DisarmAfter,
	// or Flush ended the stream inside a burst).
	SegClose
)

// Transition is one BurstSegmenter output: a burst opening or closing.
type Transition struct {
	Kind SegKind
	// Burst is the segment as known at the transition: at SegOpen its End
	// still extends while the burst stays hot; at SegClose it is final.
	Burst Burst
	// Gap is the idle time since the previous burst's End, set (with
	// HasGap) on every SegOpen after the first closed burst — the Fig 4
	// inter-burst gap.
	Gap    simclock.Duration
	HasGap bool
	// At is when the transition was detected (the triggering span's End),
	// which lags Burst.Start by the arming debounce.
	At simclock.Time
}

// SegmenterConfig parameterizes a BurstSegmenter.
type SegmenterConfig struct {
	// HotAbove is the hot criterion: a span is hot when Util > HotAbove.
	// <= 0 selects DefaultHotThreshold.
	HotAbove float64
	// ColdBelow enables hysteresis: a span is cold when Util < ColdBelow,
	// and spans between the thresholds extend nothing and reset nothing.
	// <= 0 disables hysteresis (cold = not hot).
	ColdBelow float64
	// ArmAfter is how many consecutive hot spans open a burst; < 1 means 1.
	ArmAfter int
	// DisarmAfter is how many consecutive cold spans close it; < 1 means 1.
	DisarmAfter int
}

// BurstSegmenter is the incremental burst/gap state machine shared by the
// streaming analysis path and internal/detect's online detectors: feed
// utilization spans in order and receive bursts and inter-burst gaps as
// they close. Bursts is this machine at ArmAfter = DisarmAfter = 1 with no
// hysteresis; the gaps it emits then separate consecutive Bursts (the
// Fig 4 sample set).
type BurstSegmenter struct {
	hotAbove  float64
	coldBelow float64
	arm       int
	disarm    int

	active   bool
	hotRun   int
	coldRun  int
	runStart simclock.Time
	cur      Burst
	prevEnd  simclock.Time
	closed   bool
}

// NewBurstSegmenter returns a segmenter for the given configuration.
func NewBurstSegmenter(cfg SegmenterConfig) *BurstSegmenter {
	if cfg.HotAbove <= 0 {
		cfg.HotAbove = DefaultHotThreshold
	}
	if cfg.ArmAfter < 1 {
		cfg.ArmAfter = 1
	}
	if cfg.DisarmAfter < 1 {
		cfg.DisarmAfter = 1
	}
	return &BurstSegmenter{
		hotAbove:  cfg.HotAbove,
		coldBelow: cfg.ColdBelow,
		arm:       cfg.ArmAfter,
		disarm:    cfg.DisarmAfter,
	}
}

// Feed consumes the next utilization span. The returned bool reports
// whether a transition fired.
//
// Per span on the streaming figure path: allocation-free
// (TestBurstSegmenterFeedAllocatesNothing).
func (g *BurstSegmenter) Feed(p UtilPoint) (Transition, bool) {
	hot := p.Util > g.hotAbove
	cold := !hot
	if g.coldBelow > 0 {
		cold = p.Util < g.coldBelow
	}
	switch {
	case hot:
		g.coldRun = 0
		g.hotRun++
		if g.hotRun == 1 {
			g.runStart = p.Start
		}
		if g.active {
			g.cur.End = p.End
		} else if g.hotRun >= g.arm {
			g.active = true
			g.cur = Burst{Start: g.runStart, End: p.End}
			tr := Transition{Kind: SegOpen, Burst: g.cur, At: p.End}
			if g.closed {
				tr.Gap = g.runStart.Sub(g.prevEnd)
				tr.HasGap = true
			}
			return tr, true
		}
	case cold:
		g.hotRun = 0
		g.coldRun++
		if g.active && g.coldRun >= g.disarm {
			return g.close(p.End), true
		}
	}
	// Hysteresis dead zone (ColdBelow <= Util <= HotAbove): no-op, as in
	// the EWMA detector it was extracted from.
	return Transition{}, false
}

// Flush closes a burst left open at end of stream (Bursts keeps such
// trailing segments, so streaming callers must too). The returned bool
// reports whether a close fired.
func (g *BurstSegmenter) Flush() (Transition, bool) {
	if !g.active {
		return Transition{}, false
	}
	return g.close(g.cur.End), true
}

func (g *BurstSegmenter) close(at simclock.Time) Transition {
	g.active = false
	g.closed = true
	g.prevEnd = g.cur.End
	return Transition{Kind: SegClose, Burst: g.cur, At: at}
}

// Active reports whether a burst is currently open.
func (g *BurstSegmenter) Active() bool { return g.active }

// Reset returns the segmenter to its initial state.
func (g *BurstSegmenter) Reset() {
	cfg := SegmenterConfig{HotAbove: g.hotAbove, ColdBelow: g.coldBelow, ArmAfter: g.arm, DisarmAfter: g.disarm}
	*g = *NewBurstSegmenter(cfg)
}

// RebinAcc aggregates a utilization series into fixed-width bins (e.g.
// the 1 s granularity of Fig 7's coarse curves), byte-weighting each
// span by its overlap with the bin: feed spans in order, read the bins
// at the end.
type RebinAcc struct {
	width   simclock.Duration
	started bool
	start   simclock.Time
	end     simclock.Time
	acc     []float64 // util·ns accumulated per bin, grown on demand
}

// NewRebinAcc returns a rebinner; it panics on non-positive width.
func NewRebinAcc(width simclock.Duration) *RebinAcc {
	if width <= 0 {
		panic("analysis: non-positive rebin width")
	}
	return &RebinAcc{width: width}
}

// Add distributes one span across the bins it overlaps.
//
// Per span: amortized bin-slice growth only
// (TestRebinAccAddAllocatesNothing).
func (r *RebinAcc) Add(p UtilPoint) {
	if !r.started {
		r.start = p.Start.Truncate(r.width)
		r.started = true
	}
	r.end = p.End
	s, e := p.Start, p.End
	for s.Before(e) {
		bi := int(s.Sub(r.start) / simclock.Duration(r.width))
		for bi >= len(r.acc) {
			r.acc = append(r.acc, 0)
		}
		binEnd := r.start.Add(simclock.Duration(bi+1) * r.width)
		segEnd := e
		if binEnd.Before(segEnd) {
			segEnd = binEnd
		}
		r.acc[bi] += p.Util * float64(segEnd.Sub(s))
		s = segEnd
	}
}

// Points finalizes the bins. The bin count derives from the last span's
// End; accumulation beyond it (possible only for non-monotonic input) is
// discarded.
func (r *RebinAcc) Points() []UtilPoint {
	if !r.started {
		return nil
	}
	nbins := int((r.end.Sub(r.start) + r.width - 1) / simclock.Duration(r.width))
	if nbins <= 0 {
		nbins = 1
	}
	out := make([]UtilPoint, nbins)
	for i := range out {
		binStart := r.start.Add(simclock.Duration(i) * r.width)
		var acc float64
		if i < len(r.acc) {
			acc = r.acc[i]
		}
		out[i] = UtilPoint{
			Start: binStart,
			End:   binStart.Add(r.width),
			Util:  acc / float64(r.width),
		}
	}
	return out
}

// DropBinAcc converts a cumulative drop-counter series into per-bin drop
// counts at a fixed granularity (1 minute in Fig 2): feed samples in
// order, read the bins at the end. The final bin count depends on the
// last timestamp, so deltas landing past it accumulate in overflow bins
// that Bins folds into the last bin (uint64 sums commute, so the fold is
// exact).
type DropBinAcc struct {
	bin   simclock.Duration
	n     int
	start simclock.Time
	prev  wire.Sample
	bins  []uint64
	err   error
}

// NewDropBinAcc returns a drop binner, rejecting non-positive bins.
func NewDropBinAcc(bin simclock.Duration) (*DropBinAcc, error) {
	if bin <= 0 {
		return nil, fmt.Errorf("analysis: non-positive bin %v", bin)
	}
	return &DropBinAcc{bin: bin}, nil
}

// Add consumes the next drop-counter sample. Errors latch.
//
// Per sample: amortized bin-slice growth only
// (TestDropBinAccAddAllocatesNothing).
func (d *DropBinAcc) Add(s wire.Sample) error {
	if d.err != nil {
		return d.err
	}
	if d.n == 0 {
		d.start = s.Time
		d.prev = s
		d.n = 1
		return nil
	}
	if s.Time.Sub(d.prev.Time) <= 0 {
		d.err = fmt.Errorf("analysis: non-increasing timestamps")
		return d.err
	}
	bi := int(d.prev.Time.Sub(d.start) / d.bin)
	for bi >= len(d.bins) {
		d.bins = append(d.bins, 0)
	}
	d.bins[bi] += s.Value - d.prev.Value
	d.prev = s
	d.n++
	return nil
}

// Bins finalizes the per-bin counts.
func (d *DropBinAcc) Bins() ([]uint64, error) {
	if d.err != nil {
		return nil, d.err
	}
	if d.n < 2 {
		return nil, fmt.Errorf("analysis: need >= 2 samples")
	}
	n := int(d.prev.Time.Sub(d.start) / d.bin)
	if n <= 0 {
		n = 1
	}
	out := make([]uint64, n)
	for i, v := range d.bins {
		if i >= n {
			out[n-1] += v
		} else {
			out[i] = v
		}
	}
	return out, nil
}

// SeriesEndpoints retains only the first and last sample of a series —
// all that SNMP-style coarse analysis (CoarseWindow, Figs 1–2) reads.
type SeriesEndpoints struct {
	First, Last wire.Sample
	Count       int
}

// Add consumes the next sample.
//
// Per sample: allocation-free (TestSeriesEndpointsAddAllocatesNothing).
func (e *SeriesEndpoints) Add(s wire.Sample) {
	if e.Count == 0 {
		e.First = s
	}
	e.Last = s
	e.Count++
}

// Slice reconstructs a series equivalent to the original for endpoint
// consumers: CoarseWindow(endpoints.Slice(), ...) equals CoarseWindow on
// the full series, including the short-series error cases.
func (e *SeriesEndpoints) Slice() []wire.Sample {
	switch e.Count {
	case 0:
		return nil
	case 1:
		return []wire.Sample{e.First}
	default:
		return []wire.Sample{e.First, e.Last}
	}
}

// PacketMixAcc classifies each sampling period of one port as inside or
// outside a burst by its byte counter, and accumulates the same period's
// size-bin deltas into the matching Fig 5 histogram — the §5.3
// methodology ("Packets were binned by their size into several ranges
// and polled alongside the total byte count of the interface in order to
// classify the samples"). Feed the interleaved byte/size-bin stream and
// read the histograms at the end. Byte and bin samples are paired by
// index; campaigns emit them in lockstep, so the internal pairing queues
// stay O(1) deep (a stream where one kind runs far ahead buffers the
// difference).
type PacketMixAcc struct {
	threshold float64
	util      *UtilState
	utilErr   error
	alignErr  error
	res       PacketMixResult

	nBytes, nBins int
	matched       int // pairs processed so far
	byteQ         []byteRec
	binQ          []wire.Sample
	prevBin       wire.Sample
}

// byteRec is the per-index residue of a byte sample: its timestamp (for
// the alignment check) and the utilization of the span it closed.
type byteRec struct {
	time    simclock.Time
	util    float64
	hasUtil bool
}

// NewPacketMixAcc returns a packet-mix classifier for a port with the
// given line rate; threshold <= 0 selects DefaultHotThreshold.
func NewPacketMixAcc(speedBps uint64, threshold float64) *PacketMixAcc {
	if threshold <= 0 {
		threshold = DefaultHotThreshold
	}
	return &PacketMixAcc{
		threshold: threshold,
		util:      NewUtilState(speedBps),
		res:       PacketMixResult{Inside: NewSizeHistogram(), Outside: NewSizeHistogram()},
	}
}

// Feed routes one sample by kind: size-bin samples classify, anything
// else feeds the byte series.
func (m *PacketMixAcc) Feed(s wire.Sample) {
	if s.Kind == asic.KindSizeBins {
		m.AddBin(s)
	} else {
		m.AddByte(s)
	}
}

// AddByte consumes the next cumulative byte-counter sample.
func (m *PacketMixAcc) AddByte(s wire.Sample) {
	rec := byteRec{time: s.Time}
	p, ok, err := m.util.Feed(s)
	if err != nil {
		if m.utilErr == nil {
			m.utilErr = err
		}
	} else if ok {
		// The span this sample closes is the period classified at this
		// index.
		rec.util = p.Util
		rec.hasUtil = true
	}
	m.nBytes++
	m.byteQ = append(m.byteQ, rec)
	m.pair()
}

// AddBin consumes the next size-bin sample.
func (m *PacketMixAcc) AddBin(s wire.Sample) {
	m.nBins++
	m.binQ = append(m.binQ, s)
	m.pair()
}

// pair processes every index for which both samples have arrived, in
// index order.
func (m *PacketMixAcc) pair() {
	for len(m.byteQ) > 0 && len(m.binQ) > 0 {
		if m.utilErr != nil || m.alignErr != nil {
			// Classification stops at the first such error; keep the
			// histograms frozen at that point.
			m.byteQ = m.byteQ[1:]
			m.binQ = m.binQ[1:]
			m.matched++
			continue
		}
		rec, bin := m.byteQ[0], m.binQ[0]
		i := m.matched
		if i >= 1 {
			if bin.Time != rec.time {
				m.alignErr = fmt.Errorf("analysis: sample %d misaligned (%v vs %v)", i, bin.Time, rec.time)
				continue
			}
			if rec.hasUtil {
				target := m.res.Outside
				if rec.util > m.threshold {
					target = m.res.Inside
					m.res.InsidePeriods++
				} else {
					m.res.OutsidePeriods++
				}
				for b := range bin.Bins {
					delta := bin.Bins[b] - m.prevBin.Bins[b]
					target.AddBin(b, int64(delta))
				}
			}
		}
		m.prevBin = bin
		m.byteQ = m.byteQ[1:]
		m.binQ = m.binQ[1:]
		m.matched++
	}
}

// Result finalizes the classification. Error precedence: mismatched
// counts, then utilization-series errors, then the first misaligned pair.
func (m *PacketMixAcc) Result() (PacketMixResult, error) {
	empty := PacketMixResult{Inside: NewSizeHistogram(), Outside: NewSizeHistogram()}
	if m.nBytes != m.nBins {
		return empty, fmt.Errorf("analysis: byte/bin sample counts differ: %d vs %d", m.nBytes, m.nBins)
	}
	if m.utilErr != nil {
		return empty, m.utilErr
	}
	if err := m.util.Close(); err != nil {
		return empty, err
	}
	if m.alignErr != nil {
		return m.res, m.alignErr
	}
	return m.res, nil
}

// BufferWindowAcc is the engine behind BufferVsHotPorts: feed per-port
// utilization spans and buffer-peak samples in any order, read the
// Fig 10 windows at the end. Hot-port sets and peak maxima are
// order-independent, so Windows() does not depend on the interleaving.
type BufferWindowAcc struct {
	window    simclock.Duration
	threshold float64
	aggs      map[simclock.Time]*bufferAgg
}

type bufferAgg struct {
	hot  map[int]bool
	peak float64
}

// NewBufferWindowAcc returns a window accumulator, rejecting non-positive
// windows; threshold <= 0 selects DefaultHotThreshold.
func NewBufferWindowAcc(window simclock.Duration, threshold float64) (*BufferWindowAcc, error) {
	if window <= 0 {
		return nil, fmt.Errorf("analysis: non-positive window %v", window)
	}
	if threshold <= 0 {
		threshold = DefaultHotThreshold
	}
	return &BufferWindowAcc{window: window, threshold: threshold, aggs: make(map[simclock.Time]*bufferAgg)}, nil
}

func (b *BufferWindowAcc) at(t simclock.Time) *bufferAgg {
	key := t.Truncate(b.window)
	a := b.aggs[key]
	if a == nil {
		a = &bufferAgg{hot: make(map[int]bool)}
		b.aggs[key] = a
	}
	return a
}

// ObserveUtil records one utilization span of port.
func (b *BufferWindowAcc) ObserveUtil(port int, p UtilPoint) {
	if p.Util > b.threshold {
		b.at(p.Start).hot[port] = true
	}
}

// ObservePeak records one buffer-peak sample.
func (b *BufferWindowAcc) ObservePeak(s wire.Sample) {
	a := b.at(s.Time)
	if v := float64(s.Value); v > a.peak {
		a.peak = v
	}
}

// Windows finalizes the Fig 10 windows, ordered by start.
func (b *BufferWindowAcc) Windows() []BufferWindow {
	out := make([]BufferWindow, 0, len(b.aggs))
	for start, a := range b.aggs {
		out = append(out, BufferWindow{Start: start, HotPorts: len(a.hot), PeakBytes: a.peak})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}
