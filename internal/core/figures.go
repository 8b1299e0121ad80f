package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"mburst/internal/analysis"
	"mburst/internal/asic"
	"mburst/internal/collector"
	"mburst/internal/simclock"
	"mburst/internal/stats"
	"mburst/internal/topo"
	"mburst/internal/workload"
)

// AppECDF holds one empirical distribution per application class.
type AppECDF map[workload.App]*stats.ECDF

// perCell groups a cell's reduced result with the app that produced it, so
// multi-app campaign grids can be re-aggregated per app after a single
// parallel run.
type perCell[T any] struct {
	app workload.App
	v   T
}

// appGrid builds the rack-major campaign grid for every application class
// with one shared plan — the layout most figures fan out over.
func (e *Experiment) appGrid(plan CounterPlan, interval simclock.Duration) []Cell {
	return e.campaignCells(workload.Apps[:], plan, interval, 0)
}

// downlinkCounters returns every ToR→server counter of the given kinds.
func downlinkCounters(servers int, kinds ...asic.CounterKind) CounterPlan {
	return func(_ topo.Rack, _, _ int) []collector.CounterSpec {
		var out []collector.CounterSpec
		for s := 0; s < servers; s++ {
			for _, k := range kinds {
				out = append(out, collector.CounterSpec{Port: s, Dir: asic.TX, Kind: k})
			}
		}
		return out
	}
}

// ---------------------------------------------------------------------------
// Fig 1 — drop rate vs. utilization scatter at SNMP granularity.

// Fig1Result is the drop/utilization scatter and its headline correlation
// coefficient (the paper reports 0.098).
type Fig1Result struct {
	Points      []analysis.CoarsePoint
	Correlation float64
}

// fig1Job samples every downlink of every rack-window pair at coarse
// (SNMP-like) granularity, filling res: one (utilization, drop-rate) point
// per ToR-server link per window, mirroring Fig 1's methodology of hourly
// sub-sampled 4-minute windows.
func (e *Experiment) fig1Job(res *Fig1Result) *job {
	coarse := e.cfg.WindowDur / 5
	if coarse <= 0 {
		coarse = simclock.Millisecond
	}
	cells := e.appGrid(downlinkCounters(e.cfg.Servers, asic.KindBytes, asic.KindDrops), coarse)
	return newJob("fig1", cells, func(run *CellRun) ([]analysis.CoarsePoint, error) {
		// SNMP-style windows only read counter endpoints, so the
		// streaming reduction retains two samples per series instead of
		// the window.
		bytesEnd := make([]analysis.SeriesEndpoints, e.cfg.Servers)
		dropsEnd := make([]analysis.SeriesEndpoints, e.cfg.Servers)
		for _, s := range run.Samples {
			if s.Dir != asic.TX || int(s.Port) >= e.cfg.Servers {
				continue
			}
			switch s.Kind {
			case asic.KindBytes:
				bytesEnd[s.Port].Add(s)
			case asic.KindDrops:
				dropsEnd[s.Port].Add(s)
			}
		}
		var out []analysis.CoarsePoint
		for s := 0; s < e.cfg.Servers; s++ {
			pt, err := analysis.CoarseWindow(bytesEnd[s].Slice(), dropsEnd[s].Slice(), run.Net.Switch().Port(s).Speed())
			if err != nil {
				continue // window too short for this port; skip
			}
			out = append(out, pt)
		}
		return out, nil
	}, func(pts [][]analysis.CoarsePoint) error {
		for _, p := range pts {
			res.Points = append(res.Points, p...)
		}
		res.Correlation = analysis.DropUtilCorrelation(res.Points)
		return nil
	})
}

// Format renders the Fig 1 summary.
func (r Fig1Result) Format() string {
	var drops int
	for _, p := range r.Points {
		if p.DropRate > 0 {
			drops++
		}
	}
	return fmt.Sprintf("Fig 1: %d port-windows, %d with drops; corr(util, drop rate) = %.3f (paper: 0.098)",
		len(r.Points), drops, r.Correlation)
}

// ---------------------------------------------------------------------------
// Fig 2 — drop time series on a low- and a high-utilization port.

// Fig2Result holds per-bin drop counts for two contrasting ports.
type Fig2Result struct {
	BinDur    simclock.Duration
	LowUtil   []uint64 // web-like port, ~low average utilization
	HighUtil  []uint64 // hadoop-like port, ~high average utilization
	LowStats  analysis.Burstiness
	HighStats analysis.Burstiness
	LowAvg    float64
	HighAvg   float64
}

// fig2Job records a continuous run on every downlink of a Web rack and a
// Hadoop rack, picks the port with the most congestion discards from each
// (the paper: "We chose two switch ports that were experiencing
// congestion drops"), and bins their drops into res, reproducing Fig 2's
// "drops occur in bursts, often lasting less than the measurement
// granularity".
func (e *Experiment) fig2Job(res *Fig2Result) *job {
	*res = Fig2Result{BinDur: e.cfg.WindowDur / 20}
	if res.BinDur <= 0 {
		res.BinDur = simclock.Millisecond
	}
	type port struct {
		bins  []uint64
		stats analysis.Burstiness
		avg   float64
	}
	// Drops are overwhelmingly in the ToR→server direction (§4.2: ~90%),
	// so watch every downlink and keep the one that drops the most. Fig 2
	// is a continuous time series (12 h in the paper), not a windowed
	// campaign; run 4× the standard window so rare drop events on the
	// low-utilization port are observable.
	plan := downlinkCounters(e.cfg.Servers, asic.KindDrops, asic.KindBytes)
	cells := []Cell{
		{App: workload.Web, Plan: plan, Interval: res.BinDur / 4, Duration: 4 * e.cfg.WindowDur},
		{App: workload.Hadoop, Plan: plan, Interval: res.BinDur / 4, Duration: 4 * e.cfg.WindowDur},
	}
	return newJob("fig2", cells, func(run *CellRun) (port, error) {
		// The best (most-dropping) port is only known at end of stream, so
		// every port streams into O(bins) state — drop endpoints for the
		// ranking, growable drop bins, and a running utilization mean —
		// and the chosen port's accumulators are finalized afterwards.
		servers := e.cfg.Servers
		dropEnds := make([]analysis.SeriesEndpoints, servers)
		dropBins := make([]*analysis.DropBinAcc, servers)
		utils := make([]*analysis.UtilState, servers)
		moments := make([]stats.MomentAcc, servers)
		for s := 0; s < servers; s++ {
			acc, err := analysis.NewDropBinAcc(res.BinDur)
			if err != nil {
				return port{}, err
			}
			dropBins[s] = acc
			utils[s] = analysis.NewUtilState(run.Net.Switch().Port(s).Speed())
		}
		for _, s := range run.Samples {
			if s.Dir != asic.TX || int(s.Port) >= servers {
				continue
			}
			switch s.Kind {
			case asic.KindDrops:
				dropEnds[s.Port].Add(s)
				// Errors latch per port; only the chosen port's surface.
				_ = dropBins[s.Port].Add(s)
			case asic.KindBytes:
				if p, ok, _ := utils[s.Port].Feed(s); ok {
					moments[s.Port].Add(p.Util)
				}
			}
		}
		best, bestDrops := 0, uint64(0)
		for s := 0; s < servers; s++ {
			if dropEnds[s].Count < 2 {
				continue
			}
			if d := dropEnds[s].Last.Value - dropEnds[s].First.Value; d > bestDrops {
				best, bestDrops = s, d
			}
		}
		bins, err := dropBins[best].Bins()
		if err != nil {
			return port{}, err
		}
		if err := utils[best].Close(); err != nil {
			return port{}, err
		}
		return port{bins: bins, stats: analysis.DropBurstiness(bins), avg: moments[best].Mean()}, nil
	}, func(ports []port) error {
		res.LowUtil, res.LowStats, res.LowAvg = ports[0].bins, ports[0].stats, ports[0].avg
		res.HighUtil, res.HighStats, res.HighAvg = ports[1].bins, ports[1].stats, ports[1].avg
		return nil
	})
}

// Format renders the Fig 2 summary.
func (r Fig2Result) Format() string {
	return fmt.Sprintf(
		"Fig 2: low-util port (%.1f%% avg): %d drops, %.0f%% of bins empty, top bin %.0f%%\n"+
			"       high-util port (%.1f%% avg): %d drops, %.0f%% of bins empty, top bin %.0f%%",
		r.LowAvg*100, r.LowStats.Total, r.LowStats.ZeroBins*100, r.LowStats.TopBinShare*100,
		r.HighAvg*100, r.HighStats.Total, r.HighStats.ZeroBins*100, r.HighStats.TopBinShare*100)
}

// ---------------------------------------------------------------------------
// Table 1 — sampling interval vs. missed-interval rate.

// Table1Row is one interval's measured sampling loss.
type Table1Row struct {
	Interval simclock.Duration
	MissRate float64
}

// Table1Result reproduces the §4.1 byte-counter loss table.
type Table1Result struct {
	Rows []Table1Row
}

// table1Job measures the byte-counter miss rate at the paper's three
// intervals (plus context points) against a live Web rack, filling res.
func (e *Experiment) table1Job(res *Table1Result) *job {
	plan := func(topo.Rack, int, int) []collector.CounterSpec {
		return []collector.CounterSpec{{Port: 0, Dir: asic.TX, Kind: asic.KindBytes}}
	}
	var cells []Cell
	for _, us := range []int64{1, 10, 25, 50, 100} {
		cells = append(cells, Cell{App: workload.Web, Plan: plan, Interval: simclock.Micros(us)})
	}
	return newJob("table1", cells, func(run *CellRun) (Table1Row, error) {
		return Table1Row{Interval: run.Cell.Interval, MissRate: run.MissRate}, nil
	}, func(rows []Table1Row) error {
		res.Rows = rows
		return nil
	})
}

// Format renders Table 1.
func (r Table1Result) Format() string {
	var b strings.Builder
	b.WriteString("Table 1: sampling interval vs. missed intervals (paper: 1µs→100%, 10µs→~10%, 25µs→~1%)\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %8v  %6.2f%%\n", row.Interval, row.MissRate*100)
	}
	return strings.TrimRight(b.String(), "\n")
}

// ---------------------------------------------------------------------------
// Fig 3 / Fig 4 / Table 2 / Fig 6 — single-counter byte campaigns.

// setByteFigures sets the report's four figures of the single-counter byte
// campaign — Figs 3, 4, 6 and Table 2 — from byteCampaignJobs' results; a
// figure whose statistic was not wanted comes out empty.
func (r *Report) setByteFigures(campaigns []*ByteStats) {
	r.Fig3 = Fig3Result{Durations: make(AppECDF)}
	r.Fig4 = Fig4Result{Gaps: make(AppECDF), KS: make(map[workload.App]stats.KSResult)}
	r.Table2 = Table2Result{Models: make(map[workload.App]stats.MarkovModel)}
	r.Fig6 = Fig6Result{Utils: make(AppECDF), HotFrac: make(map[workload.App]float64)}
	for _, st := range campaigns {
		r.Fig3.Durations[st.App] = stats.NewECDF(st.Durations)
		r.Fig4.Gaps[st.App] = stats.NewECDF(st.Gaps)
		r.Fig4.KS[st.App] = analysis.PoissonTest(st.Gaps)
		r.Table2.Models[st.App] = st.Markov
		r.Fig6.Utils[st.App] = stats.NewECDF(st.Utils)
		if len(st.Utils) > 0 {
			r.Fig6.HotFrac[st.App] = float64(st.HotSamples) / float64(len(st.Utils))
		}
	}
}

// Fig3Result is the µburst duration CDF per application: the 25 µs byte
// campaigns' burst durations, each window streamed through a
// BurstSegmenter so only the closed bursts are retained.
type Fig3Result struct {
	Durations AppECDF
}

// Format renders the Fig 3 summary rows.
func (r Fig3Result) Format() string {
	var b strings.Builder
	b.WriteString("Fig 3: µburst duration CDF @25µs (paper: p90 ≤ 200µs all apps; web p90 = 50µs)\n")
	for _, app := range workload.Apps {
		e := r.Durations[app]
		if e == nil || e.N() == 0 {
			fmt.Fprintf(&b, "  %-7s no bursts observed\n", app)
			continue
		}
		fmt.Fprintf(&b, "  %-7s n=%-6d p50=%6.0fµs p90=%6.0fµs p99=%6.0fµs max=%6.0fµs ≤1period=%.0f%%\n",
			app, e.N(), e.Quantile(0.5), e.Quantile(0.9), e.Quantile(0.99), e.Max(),
			e.At(float64(ByteCampaignInterval.Microseconds()))*100)
	}
	return strings.TrimRight(b.String(), "\n")
}

// Fig4Result is the inter-burst gap CDF per application — gaps the
// BurstSegmenter emits as each following burst arms — plus the Poisson
// goodness-of-fit rejection (§5.2).
type Fig4Result struct {
	Gaps AppECDF
	KS   map[workload.App]stats.KSResult
}

// Format renders the Fig 4 summary rows.
func (r Fig4Result) Format() string {
	var b strings.Builder
	b.WriteString("Fig 4: inter-burst gap CDF @25µs (paper: 40% of web/cache gaps <100µs; long tail; Poisson rejected)\n")
	for _, app := range workload.Apps {
		e := r.Gaps[app]
		if e == nil || e.N() == 0 {
			fmt.Fprintf(&b, "  %-7s no gaps observed\n", app)
			continue
		}
		ks := r.KS[app]
		fmt.Fprintf(&b, "  %-7s n=%-6d <100µs=%.0f%% p50=%8.0fµs p99=%10.0fµs KS D=%.3f p=%.2g poisson-rejected=%v\n",
			app, e.N(), e.At(100)*100, e.Quantile(0.5), e.Quantile(0.99), ks.D, ks.PValue, ks.Rejects(0.001))
	}
	return strings.TrimRight(b.String(), "\n")
}

// Table2Result is the two-state Markov model per application, fitted from
// streaming transition counts (one MarkovAcc per window, merged across
// windows).
type Table2Result struct {
	Models map[workload.App]stats.MarkovModel
}

// Format renders Table 2.
func (r Table2Result) Format() string {
	var b strings.Builder
	b.WriteString("Table 2: burst Markov model (paper ratios: web 119.7, cache 45.1, hadoop 15.6)\n")
	for _, app := range workload.Apps {
		m, ok := r.Models[app]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "  %-7s p(1|0)=%.4f p(1|1)=%.4f likelihood ratio r=%.1f stationary-hot=%.2f%%\n",
			app, m.P[0][1], m.P[1][1], m.LikelihoodRatio(), m.StationaryHotFraction()*100)
	}
	return strings.TrimRight(b.String(), "\n")
}

// Fig6Result is the link-utilization CDF per application, with the hot
// samples counted inline.
type Fig6Result struct {
	Utils   AppECDF
	HotFrac map[workload.App]float64
}

// Format renders the Fig 6 summary rows.
func (r Fig6Result) Format() string {
	var b strings.Builder
	b.WriteString("Fig 6: utilization CDF @25µs (paper: long-tailed; hadoop hot ~15% incl. ~10% near 100%)\n")
	for _, app := range workload.Apps {
		e := r.Utils[app]
		if e == nil || e.N() == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-7s n=%-7d p50=%5.1f%% p90=%5.1f%% p99=%5.1f%% hot(>50%%)=%5.2f%% ≥95%%=%5.2f%%\n",
			app, e.N(), e.Quantile(0.5)*100, e.Quantile(0.9)*100, e.Quantile(0.99)*100,
			r.HotFrac[app]*100, (1-e.At(0.95))*100)
	}
	return strings.TrimRight(b.String(), "\n")
}

// ---------------------------------------------------------------------------
// Fig 5 — packet sizes inside/outside bursts.

// Fig5Result is the inside/outside packet-size mix per application.
type Fig5Result struct {
	Mix map[workload.App]analysis.PacketMixResult
}

// fig5Job polls byte + size-bin counters together at 100 µs (the §5.3
// methodology) on random ports and classifies periods by utilization,
// filling res.
func (e *Experiment) fig5Job(res *Fig5Result) *job {
	*res = Fig5Result{Mix: make(map[workload.App]analysis.PacketMixResult)}
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
	return newJob("fig5", cells, func(run *CellRun) (perCell[analysis.PacketMixResult], error) {
		c := run.Cell
		port := e.randomPort(c.App, c.RackID, c.Window)
		// The cell polls exactly one port's byte + size-bin counters, so a
		// single PacketMixAcc consumes the interleaved stream directly.
		mix := analysis.NewPacketMixAcc(run.Net.Switch().Port(port).Speed(), analysis.DefaultHotThreshold)
		for _, s := range run.Samples {
			if int(s.Port) != port || s.Dir != asic.TX {
				continue
			}
			mix.Feed(s)
		}
		m, err := mix.Result()
		if err != nil {
			return perCell[analysis.PacketMixResult]{}, fmt.Errorf("fig5: %w", err)
		}
		return perCell[analysis.PacketMixResult]{app: c.App, v: m}, nil
	}, func(mixes []perCell[analysis.PacketMixResult]) error {
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
		return nil
	})
}

// Format renders the Fig 5 histograms.
func (r Fig5Result) Format() string {
	var b strings.Builder
	b.WriteString("Fig 5: packet-size mix inside/outside bursts (paper: large-pkt share rises inside; web +60%, cache +20%, hadoop slight)\n")
	for _, app := range workload.Apps {
		mix, ok := r.Mix[app]
		if !ok {
			continue
		}
		in := mix.Inside.Normalized()
		out := mix.Outside.Normalized()
		fmt.Fprintf(&b, "  %-7s inside (n=%d periods): ", app, mix.InsidePeriods)
		for i := 0; i < asic.NumSizeBins; i++ {
			fmt.Fprintf(&b, "%s=%.2f ", asic.SizeBinLabel(i), in[i])
		}
		fmt.Fprintf(&b, "\n          outside (n=%d periods): ", mix.OutsidePeriods)
		for i := 0; i < asic.NumSizeBins; i++ {
			fmt.Fprintf(&b, "%s=%.2f ", asic.SizeBinLabel(i), out[i])
		}
		fmt.Fprintf(&b, "\n          large-packet shift inside vs outside: %+.0f%%\n", mix.LargeShift()*100)
	}
	return strings.TrimRight(b.String(), "\n")
}

// ---------------------------------------------------------------------------
// Fig 7 — uplink load-balance MAD.

// Fig7Curves holds the four CDFs for one application.
type Fig7Curves struct {
	EgressFine    *stats.ECDF // 40 µs
	EgressCoarse  *stats.ECDF // 1 s-equivalent (WindowDur-scaled)
	IngressFine   *stats.ECDF
	IngressCoarse *stats.ECDF
}

// Fig7Result maps applications to their MAD curves.
type Fig7Result struct {
	MAD map[workload.App]Fig7Curves
	// CoarseBin is the "1 s" rebin width used (scaled to the window).
	CoarseBin simclock.Duration
}

// fig7Job polls all four uplinks (both directions) at 40 µs and computes
// the normalized mean absolute deviation per sampling period, plus a
// coarse rebin, filling res: the paper's contrast between 40 µs imbalance
// and 1 s balance.
func (e *Experiment) fig7Job(res *Fig7Result) *job {
	rack := e.Rack()
	*res = Fig7Result{MAD: make(map[workload.App]Fig7Curves)}
	// The paper contrasts 40µs with 1s; a scaled window may be shorter
	// than 1s, so coarse means the whole window, capped at 1s.
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
	return newJob("fig7", cells, func(run *CellRun) (perCell[mads], error) {
		// One streaming state per (uplink, direction): the utilization
		// converter, the fine points (MAD needs the aligned matrix), and a
		// coarse rebinner filling in one pass.
		type side struct {
			st     *analysis.UtilState
			points []analysis.UtilPoint
			coarse *analysis.RebinAcc
		}
		newSides := func() []*side {
			out := make([]*side, rack.NumUplinks)
			for u := range out {
				out[u] = &side{
					st:     analysis.NewUtilState(rack.UplinkSpeed),
					coarse: analysis.NewRebinAcc(res.CoarseBin),
				}
			}
			return out
		}
		egress, ingress := newSides(), newSides()
		uplinkOf := make(map[uint16]int, rack.NumUplinks)
		for u := 0; u < rack.NumUplinks; u++ {
			uplinkOf[uint16(rack.UplinkPort(u))] = u
		}
		for _, s := range run.Samples {
			if s.Kind != asic.KindBytes {
				continue
			}
			u, ok := uplinkOf[s.Port]
			if !ok {
				continue
			}
			var sd *side
			switch s.Dir {
			case asic.TX:
				sd = egress[u]
			case asic.RX:
				sd = ingress[u]
			default:
				continue
			}
			if p, ok, _ := sd.st.Feed(s); ok {
				sd.points = append(sd.points, p)
				sd.coarse.Add(p)
			}
		}
		// Collect surviving uplinks in index order, skipping errored series
		// exactly as the batch path skipped failed UtilizationSeries calls.
		collect := func(sides []*side) (fine, coarse [][]analysis.UtilPoint) {
			for _, sd := range sides {
				if sd.st.Close() != nil {
					continue
				}
				fine = append(fine, sd.points)
				coarse = append(coarse, sd.coarse.Points())
			}
			return fine, coarse
		}
		egFine, egCoarse := collect(egress)
		inFine, inCoarse := collect(ingress)
		return perCell[mads]{app: run.Cell.App, v: mads{
			egFine:   analysis.UplinkMAD(egFine),
			inFine:   analysis.UplinkMAD(inFine),
			egCoarse: analysis.UplinkMAD(egCoarse),
			inCoarse: analysis.UplinkMAD(inCoarse),
		}}, nil
	}, func(wins []perCell[mads]) error {
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
		return nil
	})
}

// Format renders the Fig 7 summary rows.
func (r Fig7Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 7: uplink MAD (paper: median >25%% @40µs, hadoop p90 ≈100%%; balanced at 1s; ingress ≈ egress)\n")
	for _, app := range workload.Apps {
		c, ok := r.MAD[app]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "  %-7s egress @40µs p50=%5.1f%% p90=%6.1f%%   egress @%v p50=%5.1f%%\n",
			app, c.EgressFine.Quantile(0.5)*100, c.EgressFine.Quantile(0.9)*100,
			r.CoarseBin, c.EgressCoarse.Quantile(0.5)*100)
		fmt.Fprintf(&b, "          ingress @40µs p50=%5.1f%% p90=%6.1f%%   ingress @%v p50=%5.1f%%\n",
			c.IngressFine.Quantile(0.5)*100, c.IngressFine.Quantile(0.9)*100,
			r.CoarseBin, c.IngressCoarse.Quantile(0.5)*100)
	}
	return strings.TrimRight(b.String(), "\n")
}

// ---------------------------------------------------------------------------
// Fig 8 — server correlation heatmap.

// Fig8Result is the per-app server correlation structure.
type Fig8Result struct {
	Corr map[workload.App][][]float64
	// MeanOffDiag is the average |r| across server pairs.
	MeanOffDiag map[workload.App]float64
	// BlockScore is within-group minus across-group mean correlation for
	// the app's known group structure (cache), 0 for ungrouped apps.
	BlockScore map[workload.App]float64
}

// fig8Job polls every downlink at 250 µs (ToR→server) and computes the
// Pearson matrix, filling res.
func (e *Experiment) fig8Job(res *Fig8Result) *job {
	*res = Fig8Result{
		Corr:        make(map[workload.App][][]float64),
		MeanOffDiag: make(map[workload.App]float64),
		BlockScore:  make(map[workload.App]float64),
	}
	interval := 250 * simclock.Microsecond
	// One representative rack-window per app: a heatmap is per-rack in the
	// paper ("three representative racks").
	var cells []Cell
	for _, app := range workload.Apps {
		cells = append(cells, Cell{
			App: app, Plan: downlinkCounters(e.cfg.Servers, asic.KindBytes), Interval: interval,
		})
	}
	return newJob("fig8", cells, func(run *CellRun) ([][]float64, error) {
		points := make([][]analysis.UtilPoint, e.cfg.Servers)
		err := portUtils(run, e.cfg.Servers, func(port int, p analysis.UtilPoint) {
			points[port] = append(points[port], p)
		})
		if err != nil {
			return nil, err
		}
		return analysis.ServerCorrelation(points), nil
	}, func(corrs [][][]float64) error {
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
		return nil
	})
}

// Format renders the Fig 8 summary rows.
func (r Fig8Result) Format() string {
	var b strings.Builder
	b.WriteString("Fig 8: server correlation @250µs (paper: web ≈ 0, hadoop modest, cache strong subsets)\n")
	for _, app := range workload.Apps {
		if _, ok := r.Corr[app]; !ok {
			continue
		}
		fmt.Fprintf(&b, "  %-7s mean |pairwise r| = %.3f", app, r.MeanOffDiag[app])
		if score, ok := r.BlockScore[app]; ok && score != 0 {
			fmt.Fprintf(&b, "  group block score = %.3f (within-group − across-group)", score)
		}
		b.WriteString("\n")
	}
	return strings.TrimRight(b.String(), "\n")
}

// ---------------------------------------------------------------------------
// Fig 9 — hot-port directionality.

// Fig9Result is the uplink/downlink hot-sample split per application.
type Fig9Result struct {
	Share map[workload.App]analysis.HotShare
}

// Fig9HotPortShare polls every port at 300 µs and classifies hot samples.
func (e *Experiment) Fig9HotPortShare(ctx context.Context) (Fig9Result, error) {
	return runJob(ctx, e, e.fig9Job)
}

// fig9Job is Fig9HotPortShare's campaign, filling res.
func (e *Experiment) fig9Job(res *Fig9Result) *job {
	rack := e.Rack()
	*res = Fig9Result{Share: make(map[workload.App]analysis.HotShare)}
	interval := 300 * simclock.Microsecond
	cells := e.appGrid(AllPortCounters(false), interval)
	return newJob("fig9", cells, func(run *CellRun) (perCell[analysis.HotShare], error) {
		ports := rack.NumPorts()
		hot := make([]int, ports)
		err := portUtils(run, ports, func(port int, p analysis.UtilPoint) {
			if p.Util > analysis.DefaultHotThreshold {
				hot[port]++
			}
		})
		if err != nil {
			return perCell[analysis.HotShare]{}, err
		}
		var share analysis.HotShare
		for p := 0; p < ports; p++ {
			if rack.IsUplink(p) {
				share.UplinkHot += hot[p]
			} else {
				share.DownlinkHot += hot[p]
			}
		}
		return perCell[analysis.HotShare]{app: run.Cell.App, v: share}, nil
	}, func(shares []perCell[analysis.HotShare]) error {
		for _, s := range shares {
			share := res.Share[s.app]
			share.UplinkHot += s.v.UplinkHot
			share.DownlinkHot += s.v.DownlinkHot
			res.Share[s.app] = share
		}
		return nil
	})
}

// portUtils feeds the egress byte samples of ports [0, n) of a cell through
// one streaming utilization converter per port, handing every point to
// visit, and returns the first Close error in port order — the same
// precedence the batch per-port loop had.
func portUtils(run *CellRun, n int, visit func(port int, p analysis.UtilPoint)) error {
	states := make([]*analysis.UtilState, n)
	for p := range states {
		states[p] = analysis.NewUtilState(run.Net.Switch().Port(p).Speed())
	}
	for _, s := range run.Samples {
		if s.Kind != asic.KindBytes || s.Dir != asic.TX || int(s.Port) >= n {
			continue
		}
		if p, ok, _ := states[s.Port].Feed(s); ok {
			visit(int(s.Port), p)
		}
	}
	for _, st := range states {
		if err := st.Close(); err != nil {
			return err
		}
	}
	return nil
}

// Format renders the Fig 9 summary rows.
func (r Fig9Result) Format() string {
	var b strings.Builder
	b.WriteString("Fig 9: hot-port direction @300µs (paper: hadoop uplink share 18%, web lower; cache majority uplink)\n")
	for _, app := range workload.Apps {
		s, ok := r.Share[app]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "  %-7s uplink share of hot samples = %.0f%% (%d uplink / %d downlink)\n",
			app, s.UplinkShare()*100, s.UplinkHot, s.DownlinkHot)
	}
	return strings.TrimRight(b.String(), "\n")
}

// ---------------------------------------------------------------------------
// Fig 10 — buffer occupancy vs. hot ports.

// Fig10Result is the per-app buffer/hot-port relationship.
type Fig10Result struct {
	Box        map[workload.App]map[int]stats.BoxplotSummary
	MaxHotFrac map[workload.App]float64
	// MeanPeakLow/High summarize the normalized occupancy at low (≤2) and
	// high (top quartile) hot-port counts, quantifying the scaling claim.
	MeanPeakLow  map[workload.App]float64
	MeanPeakHigh map[workload.App]float64
}

// fig10Job polls all ports' byte counters plus the shared buffer's peak
// register at 300 µs and groups 50 ms-scaled windows by the number of hot
// ports, filling res.
func (e *Experiment) fig10Job(res *Fig10Result) *job {
	rack := e.Rack()
	*res = Fig10Result{
		Box:          make(map[workload.App]map[int]stats.BoxplotSummary),
		MaxHotFrac:   make(map[workload.App]float64),
		MeanPeakLow:  make(map[workload.App]float64),
		MeanPeakHigh: make(map[workload.App]float64),
	}
	interval := 300 * simclock.Microsecond
	// The paper groups by 50 ms spans; scale the span down with the
	// window so each window still contributes several spans.
	window := e.cfg.WindowDur / 12
	if window > 50*simclock.Millisecond {
		window = 50 * simclock.Millisecond
	}
	if window < simclock.Millisecond {
		window = simclock.Millisecond
	}
	cells := e.appGrid(AllPortCounters(true), interval)
	return newJob("fig10", cells, func(run *CellRun) (perCell[[]analysis.BufferWindow], error) {
		ports := rack.NumPorts()
		acc, err := analysis.NewBufferWindowAcc(window, analysis.DefaultHotThreshold)
		if err != nil {
			return perCell[[]analysis.BufferWindow]{}, err
		}
		for _, s := range run.Samples {
			if s.Kind == asic.KindBufferPeak {
				acc.ObservePeak(s)
			}
		}
		if err := portUtils(run, ports, acc.ObserveUtil); err != nil {
			return perCell[[]analysis.BufferWindow]{}, err
		}
		return perCell[[]analysis.BufferWindow]{app: run.Cell.App, v: acc.Windows()}, nil
	}, func(wins []perCell[[]analysis.BufferWindow]) error {
		for _, app := range workload.Apps {
			var windows []analysis.BufferWindow
			for _, w := range wins {
				if w.app == app {
					windows = append(windows, w.v...)
				}
			}
			res.Box[app] = analysis.BufferBoxplots(windows)
			res.MaxHotFrac[app] = analysis.MaxHotPortFraction(windows, rack.NumPorts())

			// Normalize peaks (same normalization as the boxplots) and split
			// into low/high hot-port regimes.
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
		return nil
	})
}

// Format renders the Fig 10 summary rows.
func (r Fig10Result) Format() string {
	var b strings.Builder
	b.WriteString("Fig 10: peak buffer vs hot ports (paper: grows with hot ports, hadoop ≫ web/cache, levels off; max hot: hadoop 100%, web 71%, cache 64%)\n")
	for _, app := range workload.Apps {
		if _, ok := r.Box[app]; !ok {
			continue
		}
		fmt.Fprintf(&b, "  %-7s max simultaneous hot ports = %.0f%%; mean normalized peak: ≤2 hot %.2f → many hot %.2f\n",
			app, r.MaxHotFrac[app]*100, r.MeanPeakLow[app], r.MeanPeakHigh[app])
	}
	return strings.TrimRight(b.String(), "\n")
}
