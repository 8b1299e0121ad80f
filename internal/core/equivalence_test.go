package core

// This file pins the composition half of the analysis engine's
// guarantee: every streaming runner (figure runners, StreamByteStats,
// AnalyzeTrace) produces byte-identical output to a materialize-then-
// reduce composition of the same data. The batchFig* reductions below are
// the pre-streaming runner bodies, kept verbatim as oracles; campaign
// generation is deterministic (TestByteCampaignDeterminism), so oracle
// and runner see identical samples and must agree bit for bit —
// including float accumulation order, error precedence, and NaN placement.
//
// The algorithm half lives beside the accumulators: internal/analysis and
// internal/stats compare each accumulator (and the slice adapter over it,
// where the package keeps one) with an independent reference. The oracles
// here call those adapters, or the feed loops below where the package has
// none, so what differs between the two sides of each comparison is the
// composition: demux routing, series and window assembly order, merge
// seams, and skip-on-damage.

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"mburst/internal/analysis"
	"mburst/internal/asic"
	"mburst/internal/collector"
	"mburst/internal/detect"
	"mburst/internal/fault"
	"mburst/internal/simclock"
	"mburst/internal/stats"
	"mburst/internal/topo"
	"mburst/internal/trace"
	"mburst/internal/wire"
	"mburst/internal/workload"
)

// ---------------------------------------------------------------------------
// NaN-tolerant deep equality. reflect.DeepEqual treats NaN != NaN, but
// several figure fields (Markov P rows with no observations, Pearson r of
// constant series) are legitimately NaN in both modes; equality here means
// "same bits modulo NaN identity".

func nanEqual(a, b reflect.Value) bool {
	if a.IsValid() != b.IsValid() {
		return false
	}
	if !a.IsValid() {
		return true
	}
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		af, bf := a.Float(), b.Float()
		return af == bf || (math.IsNaN(af) && math.IsNaN(bf))
	case reflect.Ptr, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return nanEqual(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !nanEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.IsNil() != b.IsNil() {
			return false
		}
		fallthrough
	case reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !nanEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			bv := b.MapIndex(k)
			if !bv.IsValid() || !nanEqual(a.MapIndex(k), bv) {
				return false
			}
		}
		return true
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.String:
		return a.String() == b.String()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return a.Uint() == b.Uint()
	default:
		// Chan/func/complex never appear in figure results.
		return false
	}
}

func assertStreamEqual(t *testing.T, name string, batch, stream any) {
	t.Helper()
	if reflect.DeepEqual(batch, stream) {
		return
	}
	if nanEqual(reflect.ValueOf(batch), reflect.ValueOf(stream)) {
		return
	}
	t.Errorf("%s: streaming result diverges from batch oracle\nbatch:  %+v\nstream: %+v", name, batch, stream)
}

// ---------------------------------------------------------------------------
// Slice-taking twins the oracles call: feed loops over the accumulators,
// and the two slice reductions the runners do inline. internal/analysis
// and internal/stats keep no such twin, since nothing outside these
// oracles holds the slices.

// interBurstGaps returns the idle period between consecutive bursts in
// microseconds — the Fig 4 sample set.
func interBurstGaps(bursts []analysis.Burst) []float64 {
	if len(bursts) < 2 {
		return nil
	}
	out := make([]float64, 0, len(bursts)-1)
	for i := 1; i < len(bursts); i++ {
		gap := bursts[i].Start.Sub(bursts[i-1].End)
		out = append(out, float64(gap)/float64(simclock.Microsecond))
	}
	return out
}

// burstMarkov fits the paper's two-state first-order Markov model (Table 2)
// to a utilization series at the given hot threshold.
func burstMarkov(series []analysis.UtilPoint, threshold float64) stats.MarkovModel {
	if threshold <= 0 {
		threshold = analysis.DefaultHotThreshold
	}
	var mk stats.MarkovAcc
	for _, p := range series {
		mk.Observe(p.Util > threshold)
	}
	return mk.Model()
}

// dropTimeSeries converts a cumulative drop-counter series into per-bin
// drop counts at the given granularity (1 minute in Fig 2).
func dropTimeSeries(dropSamples []wire.Sample, bin simclock.Duration) ([]uint64, error) {
	acc, err := analysis.NewDropBinAcc(bin)
	if err != nil {
		return nil, err
	}
	for _, s := range dropSamples {
		if acc.Add(s) != nil {
			break
		}
	}
	return acc.Bins()
}

// packetMixInsideOutside classifies one port's sampling periods as inside
// or outside a burst and bins each period's size-bin deltas accordingly
// (Fig 5), interleaving the two series as a campaign would.
func packetMixInsideOutside(byteSamples, binSamples []wire.Sample, speedBps uint64, threshold float64) (analysis.PacketMixResult, error) {
	acc := analysis.NewPacketMixAcc(speedBps, threshold)
	for i := 0; i < len(byteSamples) || i < len(binSamples); i++ {
		if i < len(byteSamples) {
			acc.AddByte(byteSamples[i])
		}
		if i < len(binSamples) {
			acc.AddBin(binSamples[i])
		}
	}
	return acc.Result()
}

// rebin aggregates a utilization series into fixed-width bins.
func rebin(series []analysis.UtilPoint, width simclock.Duration) []analysis.UtilPoint {
	acc := analysis.NewRebinAcc(width)
	for _, p := range series {
		acc.Add(p)
	}
	return acc.Points()
}

// hotPortShare counts hot samples by port class (Fig 9). isUplink maps a
// series index to its class.
func hotPortShare(ports [][]analysis.UtilPoint, isUplink func(i int) bool, threshold float64) analysis.HotShare {
	if threshold <= 0 {
		threshold = analysis.DefaultHotThreshold
	}
	var h analysis.HotShare
	for i, s := range ports {
		for _, p := range s {
			if p.Util > threshold {
				if isUplink(i) {
					h.UplinkHot++
				} else {
					h.DownlinkHot++
				}
			}
		}
	}
	return h
}

// ---------------------------------------------------------------------------
// Batch oracles — the pre-refactor figure reductions, verbatim.

func batchFig1(ctx context.Context, e *Experiment) (Fig1Result, error) {
	var res Fig1Result
	coarse := e.cfg.WindowDur / 5
	if coarse <= 0 {
		coarse = simclock.Millisecond
	}
	cells := e.appGrid(downlinkCounters(e.cfg.Servers, asic.KindBytes, asic.KindDrops), coarse)
	pts, err := RunCells(ctx, e.Runner(), cells, func(run *CellRun) ([]analysis.CoarsePoint, error) {
		split := analysis.Split(run.Samples)
		var out []analysis.CoarsePoint
		for s := 0; s < e.cfg.Servers; s++ {
			bytes := split[analysis.SeriesKey{Port: uint16(s), Dir: asic.TX, Kind: asic.KindBytes}]
			drops := split[analysis.SeriesKey{Port: uint16(s), Dir: asic.TX, Kind: asic.KindDrops}]
			pt, err := analysis.CoarseWindow(bytes, drops, run.Net.Switch().Port(s).Speed())
			if err != nil {
				continue // window too short for this port; skip
			}
			out = append(out, pt)
		}
		return out, nil
	})
	if err != nil {
		return res, err
	}
	for _, p := range pts {
		res.Points = append(res.Points, p...)
	}
	res.Correlation = analysis.DropUtilCorrelation(res.Points)
	return res, nil
}

func batchFig2(ctx context.Context, e *Experiment) (Fig2Result, error) {
	res := Fig2Result{BinDur: e.cfg.WindowDur / 20}
	if res.BinDur <= 0 {
		res.BinDur = simclock.Millisecond
	}
	type port struct {
		bins  []uint64
		stats analysis.Burstiness
		avg   float64
	}
	plan := downlinkCounters(e.cfg.Servers, asic.KindDrops, asic.KindBytes)
	cells := []Cell{
		{App: workload.Web, Plan: plan, Interval: res.BinDur / 4, Duration: 4 * e.cfg.WindowDur},
		{App: workload.Hadoop, Plan: plan, Interval: res.BinDur / 4, Duration: 4 * e.cfg.WindowDur},
	}
	ports, err := RunCells(ctx, e.Runner(), cells, func(run *CellRun) (port, error) {
		split := analysis.Split(run.Samples)
		best, bestDrops := 0, uint64(0)
		for s := 0; s < e.cfg.Servers; s++ {
			ds := split[analysis.SeriesKey{Port: uint16(s), Dir: asic.TX, Kind: asic.KindDrops}]
			if len(ds) < 2 {
				continue
			}
			if d := ds[len(ds)-1].Value - ds[0].Value; d > bestDrops {
				best, bestDrops = s, d
			}
		}
		drops := split[analysis.SeriesKey{Port: uint16(best), Dir: asic.TX, Kind: asic.KindDrops}]
		bytes := split[analysis.SeriesKey{Port: uint16(best), Dir: asic.TX, Kind: asic.KindBytes}]
		bins, err := dropTimeSeries(drops, res.BinDur)
		if err != nil {
			return port{}, err
		}
		series, err := analysis.UtilizationSeries(bytes, run.Net.Switch().Port(best).Speed())
		if err != nil {
			return port{}, err
		}
		var avg float64
		for _, p := range series {
			avg += p.Util
		}
		avg /= float64(len(series))
		return port{bins: bins, stats: analysis.DropBurstiness(bins), avg: avg}, nil
	})
	if err != nil {
		return res, err
	}
	res.LowUtil, res.LowStats, res.LowAvg = ports[0].bins, ports[0].stats, ports[0].avg
	res.HighUtil, res.HighStats, res.HighAvg = ports[1].bins, ports[1].stats, ports[1].avg
	return res, nil
}

// refByteCampaign is the single-counter byte campaign with every window's
// utilization series materialized — core.ByteCampaign as it was before
// byteReducer became the one reduction, kept as the oracle's data set.
type refByteCampaign struct {
	App workload.App
	// Interval is the sampling interval (25 µs, the paper's Fig 3).
	Interval simclock.Duration
	// WindowSeries holds one utilization series per (rack, window).
	WindowSeries [][]analysis.UtilPoint
	// Ports records which port each window measured.
	Ports []int
}

// refRunByteCampaign records the single-byte-counter campaign for one app at
// the given interval (0 = 25 µs), fanning the (rack, window) cells across
// the experiment's worker pool.
func (e *Experiment) refRunByteCampaign(ctx context.Context, app workload.App, interval simclock.Duration) (*refByteCampaign, error) {
	if interval <= 0 {
		interval = ByteCampaignInterval
	}
	type window struct {
		series []analysis.UtilPoint
		port   int
	}
	cells := e.campaignCells([]workload.App{app}, e.RandomPortCounters(app), interval, 0)
	wins, err := RunCells(ctx, e.Runner(), cells, func(run *CellRun) (window, error) {
		port := e.randomPort(app, run.Cell.RackID, run.Cell.Window)
		series, err := analysis.UtilizationSeries(run.Samples, run.Net.Switch().Port(port).Speed())
		if err != nil {
			return window{}, err
		}
		return window{series: series, port: port}, nil
	})
	if err != nil {
		return nil, err
	}
	c := &refByteCampaign{App: app, Interval: interval}
	for _, w := range wins {
		c.WindowSeries = append(c.WindowSeries, w.series)
		c.Ports = append(c.Ports, w.port)
	}
	return c, nil
}

// BurstDurationsMicros returns every burst duration in µs (Fig 3).
func (c *refByteCampaign) BurstDurationsMicros(threshold float64) []float64 {
	var out []float64
	for _, s := range c.WindowSeries {
		out = append(out, analysis.BurstDurations(analysis.Bursts(s, threshold))...)
	}
	return out
}

// InterBurstGapsMicros returns every within-window inter-burst gap in µs
// (Fig 4). Gaps across window boundaries are not observable and excluded.
func (c *refByteCampaign) InterBurstGapsMicros(threshold float64) []float64 {
	var out []float64
	for _, s := range c.WindowSeries {
		out = append(out, interBurstGaps(analysis.Bursts(s, threshold))...)
	}
	return out
}

// Utils returns every utilization sample (Fig 6).
func (c *refByteCampaign) Utils() []float64 {
	var out []float64
	for _, s := range c.WindowSeries {
		out = append(out, analysis.Utils(s)...)
	}
	return out
}

// batchByteFigures is the pre-refactor RunAll shared-campaign section:
// Figs 3, 4, 6 and Table 2 reduced from materialized refByteCampaign window
// series.
func batchByteFigures(ctx context.Context, e *Experiment) (Fig3Result, Fig4Result, Table2Result, Fig6Result, error) {
	th := analysis.DefaultHotThreshold
	fig3 := Fig3Result{Durations: make(AppECDF)}
	fig4 := Fig4Result{Gaps: make(AppECDF), KS: make(map[workload.App]stats.KSResult)}
	table2 := Table2Result{Models: make(map[workload.App]stats.MarkovModel)}
	fig6 := Fig6Result{Utils: make(AppECDF), HotFrac: make(map[workload.App]float64)}
	for _, app := range workload.Apps {
		c, err := e.refRunByteCampaign(ctx, app, 0)
		if err != nil {
			return fig3, fig4, table2, fig6, err
		}
		fig3.Durations[app] = stats.NewECDF(c.BurstDurationsMicros(th))
		gaps := c.InterBurstGapsMicros(th)
		fig4.Gaps[app] = stats.NewECDF(gaps)
		fig4.KS[app] = analysis.PoissonTest(gaps)
		models := make([]stats.MarkovModel, 0, len(c.WindowSeries))
		for _, s := range c.WindowSeries {
			models = append(models, burstMarkov(s, th))
		}
		table2.Models[app] = stats.MergeMarkov(models...)
		utils := c.Utils()
		fig6.Utils[app] = stats.NewECDF(utils)
		hot := 0
		for _, u := range utils {
			if u > th {
				hot++
			}
		}
		if len(utils) > 0 {
			fig6.HotFrac[app] = float64(hot) / float64(len(utils))
		}
	}
	return fig3, fig4, table2, fig6, nil
}

func batchFig5(ctx context.Context, e *Experiment) (Fig5Result, error) {
	res := Fig5Result{Mix: make(map[workload.App]analysis.PacketMixResult)}
	interval := 100 * simclock.Microsecond
	var cells []Cell
	for _, app := range workload.Apps {
		app := app
		plan := func(_ topo.Rack, rackID, window int) []collector.CounterSpec {
			port := e.randomPort(app, rackID, window)
			return []collector.CounterSpec{
				{Port: port, Dir: asic.TX, Kind: asic.KindBytes},
				{Port: port, Dir: asic.TX, Kind: asic.KindSizeBins},
			}
		}
		cells = append(cells, e.campaignCells([]workload.App{app}, plan, interval, 0)...)
	}
	mixes, err := RunCells(ctx, e.Runner(), cells, func(run *CellRun) (perCell[analysis.PacketMixResult], error) {
		c := run.Cell
		port := e.randomPort(c.App, c.RackID, c.Window)
		split := analysis.Split(run.Samples)
		bytes := split[analysis.SeriesKey{Port: uint16(port), Dir: asic.TX, Kind: asic.KindBytes}]
		bins := split[analysis.SeriesKey{Port: uint16(port), Dir: asic.TX, Kind: asic.KindSizeBins}]
		mix, err := packetMixInsideOutside(bytes, bins, run.Net.Switch().Port(port).Speed(), analysis.DefaultHotThreshold)
		if err != nil {
			return perCell[analysis.PacketMixResult]{}, err
		}
		return perCell[analysis.PacketMixResult]{app: c.App, v: mix}, nil
	})
	if err != nil {
		return res, err
	}
	for _, m := range mixes {
		agg, ok := res.Mix[m.app]
		if !ok {
			agg = analysis.PacketMixResult{Inside: analysis.NewSizeHistogram(), Outside: analysis.NewSizeHistogram()}
		}
		agg.Inside.Merge(m.v.Inside)
		agg.Outside.Merge(m.v.Outside)
		agg.InsidePeriods += m.v.InsidePeriods
		agg.OutsidePeriods += m.v.OutsidePeriods
		res.Mix[m.app] = agg
	}
	return res, nil
}

func batchRebinAll(series [][]analysis.UtilPoint, width simclock.Duration) [][]analysis.UtilPoint {
	out := make([][]analysis.UtilPoint, len(series))
	for i, s := range series {
		out[i] = rebin(s, width)
	}
	return out
}

func batchFig7(ctx context.Context, e *Experiment) (Fig7Result, error) {
	rack := e.Rack()
	res := Fig7Result{MAD: make(map[workload.App]Fig7Curves)}
	res.CoarseBin = e.cfg.WindowDur
	if res.CoarseBin > simclock.Second {
		res.CoarseBin = simclock.Second
	}
	interval := 40 * simclock.Microsecond
	plan := func(rack topo.Rack, _, _ int) []collector.CounterSpec {
		var out []collector.CounterSpec
		for u := 0; u < rack.NumUplinks; u++ {
			out = append(out,
				collector.CounterSpec{Port: rack.UplinkPort(u), Dir: asic.TX, Kind: asic.KindBytes},
				collector.CounterSpec{Port: rack.UplinkPort(u), Dir: asic.RX, Kind: asic.KindBytes},
			)
		}
		return out
	}
	type mads struct{ egFine, egCoarse, inFine, inCoarse []float64 }
	cells := e.appGrid(plan, interval)
	wins, err := RunCells(ctx, e.Runner(), cells, func(run *CellRun) (perCell[mads], error) {
		split := analysis.Split(run.Samples)
		series := func(dir asic.Direction) [][]analysis.UtilPoint {
			var out [][]analysis.UtilPoint
			for u := 0; u < rack.NumUplinks; u++ {
				key := analysis.SeriesKey{Port: uint16(rack.UplinkPort(u)), Dir: dir, Kind: asic.KindBytes}
				s, err := analysis.UtilizationSeries(split[key], rack.UplinkSpeed)
				if err != nil {
					continue
				}
				out = append(out, s)
			}
			return out
		}
		eg := series(asic.TX)
		in := series(asic.RX)
		return perCell[mads]{app: run.Cell.App, v: mads{
			egFine:   analysis.UplinkMAD(eg),
			inFine:   analysis.UplinkMAD(in),
			egCoarse: analysis.UplinkMAD(batchRebinAll(eg, res.CoarseBin)),
			inCoarse: analysis.UplinkMAD(batchRebinAll(in, res.CoarseBin)),
		}}, nil
	})
	if err != nil {
		return res, err
	}
	for _, app := range workload.Apps {
		var m mads
		for _, w := range wins {
			if w.app != app {
				continue
			}
			m.egFine = append(m.egFine, w.v.egFine...)
			m.egCoarse = append(m.egCoarse, w.v.egCoarse...)
			m.inFine = append(m.inFine, w.v.inFine...)
			m.inCoarse = append(m.inCoarse, w.v.inCoarse...)
		}
		res.MAD[app] = Fig7Curves{
			EgressFine:    stats.NewECDF(m.egFine),
			EgressCoarse:  stats.NewECDF(m.egCoarse),
			IngressFine:   stats.NewECDF(m.inFine),
			IngressCoarse: stats.NewECDF(m.inCoarse),
		}
	}
	return res, nil
}

func batchFig8(ctx context.Context, e *Experiment) (Fig8Result, error) {
	res := Fig8Result{
		Corr:        make(map[workload.App][][]float64),
		MeanOffDiag: make(map[workload.App]float64),
		BlockScore:  make(map[workload.App]float64),
	}
	interval := 250 * simclock.Microsecond
	var cells []Cell
	for _, app := range workload.Apps {
		cells = append(cells, Cell{
			App: app, Plan: downlinkCounters(e.cfg.Servers, asic.KindBytes), Interval: interval,
		})
	}
	corrs, err := RunCells(ctx, e.Runner(), cells, func(run *CellRun) ([][]float64, error) {
		split := analysis.Split(run.Samples)
		var series [][]analysis.UtilPoint
		for s := 0; s < e.cfg.Servers; s++ {
			key := analysis.SeriesKey{Port: uint16(s), Dir: asic.TX, Kind: asic.KindBytes}
			ser, err := analysis.UtilizationSeries(split[key], run.Net.Switch().Port(s).Speed())
			if err != nil {
				return nil, err
			}
			series = append(series, ser)
		}
		return analysis.ServerCorrelation(series), nil
	})
	if err != nil {
		return res, err
	}
	for i, app := range workload.Apps {
		corr := corrs[i]
		res.Corr[app] = corr

		var sum float64
		var n int
		for i := range corr {
			for j := i + 1; j < len(corr); j++ {
				if v := corr[i][j]; v == v {
					if v < 0 {
						v = -v
					}
					sum += v
					n++
				}
			}
		}
		if n > 0 {
			res.MeanOffDiag[app] = sum / float64(n)
		}

		params := e.cfg.params(app)
		if params.GroupCount > 0 && params.GroupSpan > 0 {
			groupOf := make([]int, e.cfg.Servers)
			for s := range groupOf {
				groupOf[s] = (s / params.GroupSpan) % params.GroupCount
			}
			res.BlockScore[app] = analysis.GroupBlockScore(corr, groupOf)
		}
	}
	return res, nil
}

// batchPortSeries is the pre-refactor all-port series materializer shared
// by the Fig 9/10 oracles.
func batchPortSeries(run *CellRun, ports int) ([][]analysis.UtilPoint, error) {
	split := analysis.Split(run.Samples)
	series := make([][]analysis.UtilPoint, 0, ports)
	for p := 0; p < ports; p++ {
		key := analysis.SeriesKey{Port: uint16(p), Dir: asic.TX, Kind: asic.KindBytes}
		ser, err := analysis.UtilizationSeries(split[key], run.Net.Switch().Port(p).Speed())
		if err != nil {
			return nil, err
		}
		series = append(series, ser)
	}
	return series, nil
}

func batchFig9(ctx context.Context, e *Experiment) (Fig9Result, error) {
	rack := e.Rack()
	res := Fig9Result{Share: make(map[workload.App]analysis.HotShare)}
	interval := 300 * simclock.Microsecond
	cells := e.appGrid(AllPortCounters(false), interval)
	shares, err := RunCells(ctx, e.Runner(), cells, func(run *CellRun) (perCell[analysis.HotShare], error) {
		series, err := batchPortSeries(run, rack.NumPorts())
		if err != nil {
			return perCell[analysis.HotShare]{}, err
		}
		s := hotPortShare(series, rack.IsUplink, analysis.DefaultHotThreshold)
		return perCell[analysis.HotShare]{app: run.Cell.App, v: s}, nil
	})
	if err != nil {
		return res, err
	}
	for _, s := range shares {
		share := res.Share[s.app]
		share.UplinkHot += s.v.UplinkHot
		share.DownlinkHot += s.v.DownlinkHot
		res.Share[s.app] = share
	}
	return res, nil
}

func batchFig10(ctx context.Context, e *Experiment) (Fig10Result, error) {
	rack := e.Rack()
	res := Fig10Result{
		Box:          make(map[workload.App]map[int]stats.BoxplotSummary),
		MaxHotFrac:   make(map[workload.App]float64),
		MeanPeakLow:  make(map[workload.App]float64),
		MeanPeakHigh: make(map[workload.App]float64),
	}
	interval := 300 * simclock.Microsecond
	window := e.cfg.WindowDur / 12
	if window > 50*simclock.Millisecond {
		window = 50 * simclock.Millisecond
	}
	if window < simclock.Millisecond {
		window = simclock.Millisecond
	}
	cells := e.appGrid(AllPortCounters(true), interval)
	wins, err := RunCells(ctx, e.Runner(), cells, func(run *CellRun) (perCell[[]analysis.BufferWindow], error) {
		series, err := batchPortSeries(run, rack.NumPorts())
		if err != nil {
			return perCell[[]analysis.BufferWindow]{}, err
		}
		var peaks []wire.Sample
		for _, s := range run.Samples {
			if s.Kind == asic.KindBufferPeak {
				peaks = append(peaks, s)
			}
		}
		w, err := analysis.BufferVsHotPorts(series, peaks, window, analysis.DefaultHotThreshold)
		if err != nil {
			return perCell[[]analysis.BufferWindow]{}, err
		}
		return perCell[[]analysis.BufferWindow]{app: run.Cell.App, v: w}, nil
	})
	if err != nil {
		return res, err
	}
	for _, app := range workload.Apps {
		var windows []analysis.BufferWindow
		for _, w := range wins {
			if w.app == app {
				windows = append(windows, w.v...)
			}
		}
		res.Box[app] = analysis.BufferBoxplots(windows)
		res.MaxHotFrac[app] = analysis.MaxHotPortFraction(windows, rack.NumPorts())

		var maxPeak float64
		for _, w := range windows {
			if w.PeakBytes > maxPeak {
				maxPeak = w.PeakBytes
			}
		}
		hotCounts := make([]int, 0, len(windows))
		for _, w := range windows {
			hotCounts = append(hotCounts, w.HotPorts)
		}
		sort.Ints(hotCounts)
		highCut := 3
		if len(hotCounts) > 0 {
			highCut = hotCounts[len(hotCounts)*3/4]
			if highCut < 3 {
				highCut = 3
			}
		}
		var lowSum, highSum float64
		var lowN, highN int
		for _, w := range windows {
			if maxPeak == 0 {
				continue
			}
			v := w.PeakBytes / maxPeak
			if w.HotPorts <= 2 {
				lowSum += v
				lowN++
			}
			if w.HotPorts >= highCut {
				highSum += v
				highN++
			}
		}
		if lowN > 0 {
			res.MeanPeakLow[app] = lowSum / float64(lowN)
		}
		if highN > 0 {
			res.MeanPeakHigh[app] = highSum / float64(highN)
		}
	}
	return res, nil
}

func batchImplications(ctx context.Context, e *Experiment) (ImplicationsResult, error) {
	res := ImplicationsResult{
		SignalRTTs: []simclock.Duration{
			50 * simclock.Microsecond,
			100 * simclock.Microsecond,
			250 * simclock.Microsecond,
		},
		OverBeforeSignal: make(map[workload.App][]float64),
		RepathableGaps:   make(map[workload.App]float64),
	}
	th := analysis.DefaultHotThreshold
	for _, app := range workload.Apps {
		c, err := e.refRunByteCampaign(ctx, app, 0)
		if err != nil {
			return res, err
		}
		durs := c.BurstDurationsMicros(th)
		fracs := make([]float64, len(res.SignalRTTs))
		for i, rtt := range res.SignalRTTs {
			fracs[i] = detect.FractionOverBeforeSignal(durs, rtt/2)
		}
		res.OverBeforeSignal[app] = fracs

		gaps := c.InterBurstGapsMicros(th)
		oneWay := float64(res.SignalRTTs[len(res.SignalRTTs)/2]/2) / float64(simclock.Microsecond)
		long := 0
		for _, g := range gaps {
			if g > oneWay {
				long++
			}
		}
		if len(gaps) > 0 {
			res.RepathableGaps[app] = float64(long) / float64(len(gaps))
		}

		if app == workload.Web {
			var allBursts []analysis.Burst
			var thEvents, ewEvents []detect.Event
			thDet, err := detect.NewThresholdDetector(th, 1, 1)
			if err != nil {
				return res, err
			}
			ewDet, err := detect.NewEWMADetector(0.3, th, th*0.6)
			if err != nil {
				return res, err
			}
			for _, s := range c.WindowSeries {
				allBursts = append(allBursts, analysis.Bursts(s, th)...)
				thDet.Reset()
				ewDet.Reset()
				thEvents = append(thEvents, detect.Run(thDet, s)...)
				ewEvents = append(ewEvents, detect.Run(ewDet, s)...)
			}
			slack := 4 * ByteCampaignInterval
			res.ThresholdEval = detect.Evaluate(allBursts, thEvents, slack)
			res.EWMAEval = detect.Evaluate(allBursts, ewEvents, slack)
		}
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// The equivalence tests proper.

// TestStreamingReportEquivalence re-derives every figure with the batch
// oracle and requires bit-identity with the streaming report.
func TestStreamingReportEquivalence(t *testing.T) {
	e, rep := quickReport(t)
	ctx := context.Background()

	t.Run("fig1", func(t *testing.T) {
		want, err := batchFig1(ctx, e)
		if err != nil {
			t.Fatal(err)
		}
		assertStreamEqual(t, "fig1", want, rep.Fig1)
	})
	t.Run("fig2", func(t *testing.T) {
		want, err := batchFig2(ctx, e)
		if err != nil {
			t.Fatal(err)
		}
		assertStreamEqual(t, "fig2", want, rep.Fig2)
	})
	t.Run("byte-figures", func(t *testing.T) {
		fig3, fig4, table2, fig6, err := batchByteFigures(ctx, e)
		if err != nil {
			t.Fatal(err)
		}
		assertStreamEqual(t, "fig3", fig3, rep.Fig3)
		assertStreamEqual(t, "fig4", fig4, rep.Fig4)
		assertStreamEqual(t, "table2", table2, rep.Table2)
		assertStreamEqual(t, "fig6", fig6, rep.Fig6)
	})
	t.Run("fig5", func(t *testing.T) {
		want, err := batchFig5(ctx, e)
		if err != nil {
			t.Fatal(err)
		}
		assertStreamEqual(t, "fig5", want, rep.Fig5)
	})
	t.Run("fig7", func(t *testing.T) {
		want, err := batchFig7(ctx, e)
		if err != nil {
			t.Fatal(err)
		}
		assertStreamEqual(t, "fig7", want, rep.Fig7)
	})
	t.Run("fig8", func(t *testing.T) {
		want, err := batchFig8(ctx, e)
		if err != nil {
			t.Fatal(err)
		}
		assertStreamEqual(t, "fig8", want, rep.Fig8)
	})
	t.Run("fig9", func(t *testing.T) {
		want, err := batchFig9(ctx, e)
		if err != nil {
			t.Fatal(err)
		}
		assertStreamEqual(t, "fig9", want, rep.Fig9)
	})
	t.Run("fig10", func(t *testing.T) {
		want, err := batchFig10(ctx, e)
		if err != nil {
			t.Fatal(err)
		}
		assertStreamEqual(t, "fig10", want, rep.Fig10)
	})
	t.Run("implications", func(t *testing.T) {
		want, err := batchImplications(ctx, e)
		if err != nil {
			t.Fatal(err)
		}
		assertStreamEqual(t, "implications", want, rep.Implications)
	})
}

// ---------------------------------------------------------------------------
// Materializing AnalyzeTrace reference: read each window whole, Split it,
// convert every byte series with the slice functions and reduce the
// slices — the composition core.AnalyzeTrace had as its batch mode,
// moved here. The slice functions are themselves feed loops over the
// accumulators now (internal/analysis and internal/stats pin those
// against independent references), so what this side checks is
// composition: demux routing, SortedKeys assembly order, window seams and
// skip-on-damage.

// traceWindowReduce accumulates one window's per-series results for one
// analysis kind, appended in analysis.SortedKeys order so batch and
// streaming modes assemble identically.
type traceWindowReduce struct {
	kind      string
	threshold float64
	isUplink  func(port int) bool
	res       *TraceAnalysis
}

func (t *traceWindowReduce) addSeries(key analysis.SeriesKey, series []analysis.UtilPoint) {
	switch t.kind {
	case "bursts":
		t.res.Durations = append(t.res.Durations, analysis.BurstDurations(analysis.Bursts(series, t.threshold))...)
	case "gaps":
		t.res.Gaps = append(t.res.Gaps, interBurstGaps(analysis.Bursts(series, t.threshold))...)
	case "util":
		t.res.Utils = append(t.res.Utils, analysis.Utils(series)...)
	case "markov":
		t.res.Markov = stats.MergeMarkov(t.res.Markov, burstMarkov(series, t.threshold))
	case "hotshare":
		for _, p := range series {
			if p.Util > t.threshold {
				if t.isUplink(int(key.Port)) {
					t.res.Share.UplinkHot++
				} else {
					t.res.Share.DownlinkHot++
				}
			}
		}
	}
}

// analyzeFunc is the shape AnalyzeTrace and its reference share.
type analyzeFunc func(r *trace.Reader, kind string, threshold float64) (*TraceAnalysis, error)

// refAnalyzeTrace is AnalyzeTrace by materialize-then-reduce.
func refAnalyzeTrace(r *trace.Reader, kind string, threshold float64) (*TraceAnalysis, error) {
	known := false
	for _, k := range AnalyzeKinds {
		known = known || k == kind
	}
	if !known {
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
	speedOf := func(port int) uint64 {
		if rack.IsUplink(port) {
			return rack.UplinkSpeed
		}
		return rack.ServerSpeed
	}
	res := &TraceAnalysis{}
	if kind == "markov" {
		// Seed with the empty merge so a trace with no usable series
		// yields the same all-NaN model as MergeMarkov over zero models;
		// per-series models then fold in, which is count-associative and
		// therefore identical to one merge over the collected models.
		res.Markov = stats.MergeMarkov()
	}
	reduce := &traceWindowReduce{kind: kind, threshold: threshold, isUplink: rack.IsUplink, res: res}

	for i := 0; i < meta.Windows; i++ {
		if !r.HasWindow(i) {
			continue
		}
		if err := analyzeWindowBatch(r, i, speedOf, reduce); err != nil {
			return nil, fmt.Errorf("window %d: %w", i, err)
		}
		res.Windows++
	}
	return res, nil
}

// readWindow materializes all samples of one window. O(window size)
// memory — for the reference and tests only; AnalyzeTrace streams.
func readWindow(r *trace.Reader, i int) ([]wire.Sample, error) {
	var samples []wire.Sample
	err := r.IterWindow(i, func(b *wire.Batch) error {
		samples = append(samples, b.Samples...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return samples, nil
}

// analyzeWindowBatch is the materializing window reduction: the original
// mbanalyze logic, with per-window assembly pinned to SortedKeys order.
func analyzeWindowBatch(r *trace.Reader, i int, speedOf func(int) uint64, reduce *traceWindowReduce) error {
	samples, err := readWindow(r, i)
	if err != nil {
		return err
	}
	split := analysis.Split(samples)
	byPort := make(map[analysis.SeriesKey][]analysis.UtilPoint)
	for _, key := range analysis.SortedKeys(split) {
		if key.Kind != asic.KindBytes {
			continue
		}
		series, err := analysis.UtilizationSeries(split[key], speedOf(int(key.Port)))
		if err != nil {
			continue // damaged or too-short series; skip, as mbanalyze always has
		}
		byPort[key] = series
	}
	for _, key := range analysis.SortedKeys(byPort) {
		reduce.addSeries(key, byPort[key])
	}
	return nil
}

// TestStreamByteStatsMatchesCampaignReductions pins the element order of
// the streaming byte reduction, not just the (order-insensitive) ECDFs
// built from it: slices must match the batch campaign reductions exactly.
func TestStreamByteStatsMatchesCampaignReductions(t *testing.T) {
	e, _ := quickReport(t)
	ctx := context.Background()
	th := analysis.DefaultHotThreshold
	app := workload.Hadoop

	st, err := e.StreamByteStats(ctx, app, 0, ByteWant{Durations: true, Gaps: true, Utils: true, Markov: true})
	if err != nil {
		t.Fatal(err)
	}
	c, err := e.refRunByteCampaign(ctx, app, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Durations) == 0 || len(st.Utils) == 0 {
		t.Fatalf("vacuous campaign: %d durations, %d utils", len(st.Durations), len(st.Utils))
	}
	if !reflect.DeepEqual(st.Durations, c.BurstDurationsMicros(th)) {
		t.Error("streaming burst durations diverge from batch, or differ in order")
	}
	if !reflect.DeepEqual(st.Gaps, c.InterBurstGapsMicros(th)) {
		t.Error("streaming inter-burst gaps diverge from batch, or differ in order")
	}
	if !reflect.DeepEqual(st.Utils, c.Utils()) {
		t.Error("streaming utilization samples diverge from batch, or differ in order")
	}
	if !reflect.DeepEqual(st.Ports, c.Ports) {
		t.Errorf("measured ports diverge: stream %v, batch %v", st.Ports, c.Ports)
	}
	models := make([]stats.MarkovModel, 0, len(c.WindowSeries))
	for _, s := range c.WindowSeries {
		models = append(models, burstMarkov(s, th))
	}
	assertStreamEqual(t, "markov", stats.MergeMarkov(models...), st.Markov)
	hot := 0
	for _, u := range c.Utils() {
		if u > th {
			hot++
		}
	}
	if st.HotSamples != hot {
		t.Errorf("hot samples = %d, batch count = %d", st.HotSamples, hot)
	}
}

// TestAnalyzeTraceStreamEquivalence runs every analysis kind over
// recorded traces through AnalyzeTrace and the materializing reference —
// including a trace recorded under an injected fault schedule, where
// damaged series must be skipped identically — and requires identical
// results.
func TestAnalyzeTraceStreamEquivalence(t *testing.T) {
	ctx := context.Background()
	cfg := QuickConfig()
	cfg.Servers = 8
	cfg.WindowDur = 50 * simclock.Millisecond

	traces := make(map[string]string)

	exp, err := NewExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	traces["random-port"] = filepath.Join(t.TempDir(), "rand")
	if err := exp.RecordCampaign(ctx, workload.Cache, traces["random-port"], 0, "eq", exp.RandomPortCounters(workload.Cache)); err != nil {
		t.Fatal(err)
	}

	allCfg := cfg
	allCfg.Windows = 1
	expAll, err := NewExperiment(allCfg)
	if err != nil {
		t.Fatal(err)
	}
	traces["all-ports"] = filepath.Join(t.TempDir(), "all")
	if err := expAll.RecordCampaign(ctx, workload.Hadoop, traces["all-ports"], 250*simclock.Microsecond, "eq", AllPortCounters(true)); err != nil {
		t.Fatal(err)
	}

	sched, err := fault.ParseSchedule("stuck@5ms+10ms,restart@25ms,stall@30ms+10ms:200µs")
	if err != nil {
		t.Fatal(err)
	}
	faultCfg := cfg
	faultCfg.FaultSchedule = &sched
	expFault, err := NewExperiment(faultCfg)
	if err != nil {
		t.Fatal(err)
	}
	traces["faulted"] = filepath.Join(t.TempDir(), "faulted")
	if err := expFault.RecordCampaign(ctx, workload.Web, traces["faulted"], 0, "eq-fault", expFault.RandomPortCounters(workload.Web)); err != nil {
		t.Fatal(err)
	}

	for name, dir := range traces {
		r, err := trace.Open(dir)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, kind := range AnalyzeKinds {
			batch, err := refAnalyzeTrace(r, kind, 0)
			if err != nil {
				t.Fatalf("%s/%s batch: %v", name, kind, err)
			}
			stream, err := AnalyzeTrace(r, kind, 0)
			if err != nil {
				t.Fatalf("%s/%s stream: %v", name, kind, err)
			}
			assertStreamEqual(t, name+"/"+kind, batch, stream)
			if batch.Windows == 0 {
				t.Errorf("%s/%s: no readable windows — equivalence is vacuous", name, kind)
			}
		}
	}
}

// TestTraceV2Equivalence holds a recording (trace-v2: MBW3 segments, the
// one layout written) to the samples its cells produced: every window
// must decode to exactly what was simulated, every figure must compute
// identically by AnalyzeTrace and by the materializing reference, and the
// directory must be substantially smaller than the same batches in the
// trace-v1 (MBW2) row framing.
func TestTraceV2Equivalence(t *testing.T) {
	ctx := context.Background()
	cfg := QuickConfig()
	cfg.Servers = 8
	cfg.WindowDur = 50 * simclock.Millisecond
	exp, err := NewExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := exp.RandomPortCounters(workload.Web)
	dir := filepath.Join(t.TempDir(), "c")
	if err := exp.RecordCampaign(ctx, workload.Web, dir, 0, "eq-v2", plan); err != nil {
		t.Fatal(err)
	}
	r, err := trace.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Meta().Format; got != "mbw3" {
		t.Errorf("trace-v2 meta format = %q", got)
	}

	// The decoded windows must match the simulation sample-for-sample.
	cells := exp.campaignCells([]workload.App{workload.Web}, plan, ByteCampaignInterval, 0)
	simulated, err := RunCells(ctx, exp.Runner(), cells, func(run *CellRun) ([]wire.Sample, error) {
		return append([]wire.Sample(nil), run.Samples...), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var v1, v2 int64 // bytes as MBW2 rows (nominal) and on disk
	for i, want := range simulated {
		got, err := readWindow(r, i)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("window %d empty — equivalence is vacuous", i)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("window %d decodes differently from what was simulated", i)
		}
		for off := 0; off < len(want); off += trace.BatchSize {
			v1 += int64(wire.EncodedSize(&wire.Batch{Rack: uint32(cells[i].RackID), Samples: want[off:min(off+trace.BatchSize, len(want))]}))
		}
		fi, err := os.Stat(filepath.Join(dir, fmt.Sprintf("seg_%06d.mbw", i+1)))
		if err != nil {
			t.Fatal(err)
		}
		v2 += fi.Size()
	}

	// Every figure, reference and engine.
	for _, kind := range AnalyzeKinds {
		oracle, err := refAnalyzeTrace(r, kind, 0)
		if err != nil {
			t.Fatalf("%s reference: %v", kind, err)
		}
		got, err := AnalyzeTrace(r, kind, 0)
		if err != nil {
			t.Fatalf("%s engine: %v", kind, err)
		}
		assertStreamEqual(t, "v2/"+kind, oracle, got)
	}

	t.Logf("trace-v1 %d B, trace-v2 %d B (%.2fx)", v1, v2, float64(v1)/float64(v2))
	if v2*2 >= v1 {
		t.Errorf("trace-v2 not compact: %d B vs v1's %d B", v2, v1)
	}
}
