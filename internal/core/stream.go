package core

import (
	"context"
	"fmt"

	"mburst/internal/analysis"
	"mburst/internal/asic"
	"mburst/internal/detect"
	"mburst/internal/simclock"
	"mburst/internal/stats"
	"mburst/internal/topo"
	"mburst/internal/trace"
	"mburst/internal/wire"
	"mburst/internal/workload"
)

// This file is the campaign/trace analysis path: single-pass per-series
// reductions built on analysis.UtilState/BurstSegmenter and the stats
// accumulators. A reduction keeps closed bursts, gaps and transition
// counts — sparse in the sample stream — never a materialized UtilPoint
// series. The 25 µs single-counter campaign is simulated and reduced here
// once per report (byteCampaignJobs): Figs 3, 4, 6, Table 2 (setByteFigures) and
// §7 (implications) all read the same ByteStats. equivalence_test.go checks
// every runner here against a materialize-then-reduce composition of the
// same data.

// ByteWant selects which statistics StreamByteStats accumulates; leaving
// a field false keeps that statistic's memory at zero.
type ByteWant struct {
	Durations bool
	Gaps      bool
	Utils     bool
	Markov    bool
}

// ByteStats is the streaming reduction of a single-counter byte campaign
// (the Fig 3/4/6/Table 2 data set). Slices are ordered window-major
// (rack-major cell order, bursts in time order within each window).
type ByteStats struct {
	App      workload.App
	Interval simclock.Duration
	// Durations holds burst durations in µs (Fig 3).
	Durations []float64
	// Gaps holds within-window inter-burst gaps in µs (Fig 4).
	Gaps []float64
	// Utils holds every utilization sample (Fig 6).
	Utils []float64
	// HotSamples counts utilization samples above the threshold.
	HotSamples int
	// Markov is the merged per-window Markov fit (Table 2).
	Markov stats.MarkovModel
	// Ports records which port each window measured.
	Ports []int

	// bursts are the closed bursts Durations was derived from; thEvents and
	// ewEvents are what §7's online detectors emitted, when the cells fed
	// them.
	bursts             []analysis.Burst
	thEvents, ewEvents []detect.Event
}

// byteReducer is the one per-series byte reduction, shared by
// StreamByteStats (one series per campaign cell), AnalyzeTrace (one per
// port and direction of a window), and Figs 3/4/6, Table 2 and §7 (all
// through byteCampaignJobs): samples → UtilState → spans → segmenter /
// Markov / hot count / online detectors, retaining only what want selects.
// Output is staged per series so a caller can drop a damaged series whole.
type byteReducer struct {
	want      ByteWant
	threshold float64
	util      *analysis.UtilState
	seg       *analysis.BurstSegmenter // nil unless durations or gaps are wanted
	mk        stats.MarkovAcc
	// thDet and ewDet are §7's online detectors (threshold, EWMA), set
	// together by byteCampaignJobs only; they see every utilization point.
	thDet, ewDet detect.Detector

	bursts             []analysis.Burst // kept when durations are wanted
	gaps, utils        []float64
	hot                int
	thEvents, ewEvents []detect.Event
}

func newByteReducer(speedBps uint64, threshold float64, want ByteWant) *byteReducer {
	b := &byteReducer{want: want, threshold: threshold, util: analysis.NewUtilState(speedBps)}
	if want.Durations || want.Gaps {
		b.seg = analysis.NewBurstSegmenter(analysis.SegmenterConfig{HotAbove: threshold})
	}
	return b
}

// feed consumes the series' next sample. The error is UtilState's and
// latches: after it, feed is a no-op returning the same error.
func (b *byteReducer) feed(s wire.Sample) error {
	p, ok, err := b.util.Feed(s)
	if err != nil || !ok {
		return err
	}
	hot := p.Util > b.threshold
	if hot {
		b.hot++
	}
	if b.want.Utils {
		b.utils = append(b.utils, p.Util)
	}
	if b.want.Markov {
		b.mk.Observe(hot)
	}
	if b.seg != nil {
		if tr, fired := b.seg.Feed(p); fired {
			b.transition(tr)
		}
	}
	if b.thDet != nil {
		b.thEvents = append(b.thEvents, b.thDet.Feed(p)...)
		b.ewEvents = append(b.ewEvents, b.ewDet.Feed(p)...)
	}
	return nil
}

func (b *byteReducer) transition(tr analysis.Transition) {
	switch tr.Kind {
	case analysis.SegOpen:
		if b.want.Gaps && tr.HasGap {
			b.gaps = append(b.gaps, float64(tr.Gap)/float64(simclock.Microsecond))
		}
	case analysis.SegClose:
		if b.want.Durations {
			b.bursts = append(b.bursts, tr.Burst)
		}
	}
}

// close ends the series: UtilState's verdict on it (damaged or too
// short), then the burst left open at end of stream.
func (b *byteReducer) close() error {
	if err := b.util.Close(); err != nil {
		return err
	}
	if b.seg != nil {
		if tr, fired := b.seg.Flush(); fired {
			b.transition(tr)
		}
	}
	return nil
}

// StreamByteStats runs the single-byte-counter campaign for one app at
// the given interval (0 = 25 µs) and reduces each (rack, window) cell in
// one pass over its samples, at analysis.DefaultHotThreshold. A damaged
// cell fails the campaign.
func (e *Experiment) StreamByteStats(ctx context.Context, app workload.App, interval simclock.Duration, want ByteWant) (*ByteStats, error) {
	res := &ByteStats{}
	if err := e.Runner().runJobs(ctx, e.byteJob(res, app, interval, want, false)); err != nil {
		return nil, err
	}
	return res, nil
}

// byteJob is StreamByteStats' campaign, filling res, optionally feeding
// every cell's points to its own pair of §7 online detectors.
func (e *Experiment) byteJob(res *ByteStats, app workload.App, interval simclock.Duration, want ByteWant, detectors bool) *job {
	if interval <= 0 {
		interval = ByteCampaignInterval
	}
	threshold := analysis.DefaultHotThreshold
	type cellStats struct {
		*byteReducer
		port int
	}
	cells := e.campaignCells([]workload.App{app}, e.RandomPortCounters(app), interval, 0)
	return newJob("byte campaign "+app.String(), cells, func(run *CellRun) (cellStats, error) {
		port := e.randomPort(app, run.Cell.RackID, run.Cell.Window)
		red := newByteReducer(run.Net.Switch().Port(port).Speed(), threshold, want)
		if detectors {
			var err error
			if red.thDet, red.ewDet, err = e.implicationDetectors(); err != nil {
				return cellStats{}, err
			}
		}
		for _, s := range run.Samples {
			if err := red.feed(s); err != nil {
				return cellStats{}, err
			}
		}
		if err := red.close(); err != nil {
			return cellStats{}, err
		}
		return cellStats{red, port}, nil
	}, func(wins []cellStats) error {
		*res = ByteStats{App: app, Interval: interval}
		var mk stats.MarkovAcc
		for _, w := range wins {
			res.bursts = append(res.bursts, w.bursts...)
			res.Gaps = append(res.Gaps, w.gaps...)
			res.Utils = append(res.Utils, w.utils...)
			res.HotSamples += w.hot
			res.Ports = append(res.Ports, w.port)
			mk.Merge(&w.mk)
			res.thEvents = append(res.thEvents, w.thEvents...)
			res.ewEvents = append(res.ewEvents, w.ewEvents...)
		}
		if len(res.bursts) > 0 {
			res.Durations = analysis.BurstDurations(res.bursts)
		}
		if want.Markov {
			res.Markov = mk.Model()
		}
		return nil
	})
}

// byteCampaignJobs is the 25 µs single-counter campaign — the one data
// set behind Figs 3, 4, 6, Table 2 and §7 — as one job per app, in
// workload.Apps order, and the results they fill. The web cells also feed
// §7's online detectors whenever the bursts they are evaluated against are
// kept.
func (e *Experiment) byteCampaignJobs(want ByteWant) ([]*ByteStats, []*job) {
	campaigns := make([]*ByteStats, len(workload.Apps))
	jobs := make([]*job, len(workload.Apps))
	for i, app := range workload.Apps {
		campaigns[i] = &ByteStats{}
		jobs[i] = e.byteJob(campaigns[i], app, 0, want, app == detectorApp && want.Durations)
	}
	return campaigns, jobs
}

// TraceAnalysis is the reduction of a recorded trace for one analysis
// kind — the mbanalyze payload.
type TraceAnalysis struct {
	// Windows is the number of readable windows analyzed.
	Windows int
	// Durations/Gaps/Utils are filled for kinds bursts/gaps/util.
	Durations, Gaps, Utils []float64
	// Markov is filled for kind markov.
	Markov stats.MarkovModel
	// Share is filled for kind hotshare.
	Share analysis.HotShare
}

// AnalyzeKinds lists the analysis kinds AnalyzeTrace accepts.
var AnalyzeKinds = []string{"bursts", "gaps", "util", "markov", "hotshare"}

// AnalyzeTrace reduces a recorded trace to one analysis kind. Windows are
// consumed batch-by-batch via IterWindow through a SeriesDemux of
// per-series reducers, retaining only the analysis output (O(active
// series) state for bursts/gaps/markov/hotshare; kind util inherently
// retains one float per sample for its exact ECDF). Series are assembled
// in analysis.SortedKeys order within each window; a damaged series (too
// short, non-monotonic) is skipped whole.
func AnalyzeTrace(r *trace.Reader, kind string, threshold float64) (*TraceAnalysis, error) {
	var want ByteWant
	switch kind {
	case "bursts":
		want.Durations = true
	case "gaps":
		want.Gaps = true
	case "util":
		want.Utils = true
	case "markov":
		want.Markov = true
	case "hotshare":
	default:
		return nil, fmt.Errorf("core: unknown analysis %q", kind)
	}
	if threshold <= 0 {
		threshold = analysis.DefaultHotThreshold
	}
	meta := r.Meta()
	rack := topo.Rack{
		NumServers:  meta.NumServers,
		ServerSpeed: meta.ServerSpeed,
		NumUplinks:  meta.NumUplinks,
		UplinkSpeed: meta.UplinkSpeed,
	}
	res := &TraceAnalysis{}
	var mk stats.MarkovAcc
	for i := 0; i < meta.Windows; i++ {
		if !r.HasWindow(i) {
			continue
		}
		series := make(map[analysis.SeriesKey]*byteReducer)
		demux := analysis.NewSeriesDemux(func(key analysis.SeriesKey) analysis.SampleSink {
			if key.Kind != asic.KindBytes {
				return nil
			}
			speed := rack.ServerSpeed
			if rack.IsUplink(int(key.Port)) {
				speed = rack.UplinkSpeed
			}
			red := newByteReducer(speed, threshold, want)
			series[key] = red
			return func(s wire.Sample) error {
				// Damage is not fatal to the window: the series is skipped
				// at close, and the latched reducer ignores the rest.
				_ = red.feed(s)
				return nil
			}
		})
		if err := r.IterWindow(i, demux.FeedBatch); err != nil {
			return nil, fmt.Errorf("window %d: %w", i, err)
		}
		for _, key := range analysis.SortedKeys(series) {
			red := series[key]
			if red.close() != nil {
				continue
			}
			res.Durations = append(res.Durations, analysis.BurstDurations(red.bursts)...)
			res.Gaps = append(res.Gaps, red.gaps...)
			res.Utils = append(res.Utils, red.utils...)
			mk.Merge(&red.mk)
			if kind == "hotshare" {
				if rack.IsUplink(int(key.Port)) {
					res.Share.UplinkHot += red.hot
				} else {
					res.Share.DownlinkHot += red.hot
				}
			}
		}
		res.Windows++
	}
	if want.Markov {
		res.Markov = mk.Model()
	}
	return res, nil
}
