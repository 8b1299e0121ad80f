// Package sweep runs parameter sweeps over the reproduction: one knob
// varied, everything else held at the experiment config, one table row per
// value. Sweeps answer the "what if" questions around the paper's design
// points:
//
//   - SamplingInterval extends Table 1 into a full curve (miss rate and
//     observable bursts vs. polling interval).
//   - BufferSize varies the ToR's shared buffer and watches congestion
//     discards and peak occupancy (the §7 buffering discussion: "if
//     buffers become comparatively smaller ... lower-latency congestion
//     signals may be required").
//   - Oversubscription varies the server count under fixed uplinks and
//     watches where the hot ports move (§6.3's explanation of cache
//     directionality).
//   - HotThreshold varies the burst criterion (§5.4's robustness claim).
//
// Every sweep fans its measurement cells through the core campaign runner,
// so Config.Workers and context cancellation apply here too.
package sweep

import (
	"context"
	"fmt"
	"strings"

	"mburst/internal/analysis"
	"mburst/internal/asic"
	"mburst/internal/collector"
	"mburst/internal/core"
	"mburst/internal/simclock"
	"mburst/internal/stats"
	"mburst/internal/topo"
	"mburst/internal/workload"
)

// Point is one sweep row.
type Point struct {
	// Label is the parameter value, formatted.
	Label string
	// Metrics holds the measured values keyed by metric name.
	Metrics map[string]float64
}

// Result is a completed sweep.
type Result struct {
	// Name identifies the sweep; ParamName the varied knob.
	Name, ParamName string
	// MetricNames fixes column order.
	MetricNames []string
	// Points are the rows, in parameter order.
	Points []Point
}

// Format renders the sweep as an aligned table.
func (r Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sweep %s (varying %s)\n", r.Name, r.ParamName)
	fmt.Fprintf(&b, "  %-12s", r.ParamName)
	for _, m := range r.MetricNames {
		fmt.Fprintf(&b, " %14s", m)
	}
	b.WriteString("\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "  %-12s", p.Label)
		for _, m := range r.MetricNames {
			fmt.Fprintf(&b, " %14.4g", p.Metrics[m])
		}
		b.WriteString("\n")
	}
	return strings.TrimRight(b.String(), "\n")
}

// portZeroBytes polls only port 0's egress byte counter.
func portZeroBytes(topo.Rack, int, int) []collector.CounterSpec {
	return []collector.CounterSpec{{Port: 0, Dir: asic.TX, Kind: asic.KindBytes}}
}

// SamplingInterval sweeps the poller interval against a live rack,
// reporting the miss rate (Table 1's metric) and how many bursts remain
// visible at that granularity (§5.1's motivation).
func SamplingInterval(ctx context.Context, cfg core.Config, app workload.App, intervals []simclock.Duration) (Result, error) {
	res := Result{
		Name:        "sampling-interval",
		ParamName:   "interval",
		MetricNames: []string{"miss-rate-%", "bursts", "p90-burst-µs", "cpu-busy-%"},
	}
	exp, err := core.NewExperiment(cfg)
	if err != nil {
		return res, err
	}
	cells := make([]core.Cell, len(intervals))
	for i, interval := range intervals {
		cells[i] = core.Cell{App: app, Plan: portZeroBytes, Interval: interval}
	}
	points, err := core.RunCells(ctx, exp.Runner(), cells, func(run *core.CellRun) (Point, error) {
		metrics := map[string]float64{
			"miss-rate-%": run.MissRate * 100,
			"cpu-busy-%":  run.CPUBusy * 100,
		}
		if series, err := analysis.UtilizationSeries(run.Samples, run.Net.Switch().Port(0).Speed()); err == nil {
			durs := analysis.BurstDurations(analysis.Bursts(series, analysis.DefaultHotThreshold))
			metrics["bursts"] = float64(len(durs))
			if len(durs) > 0 {
				metrics["p90-burst-µs"] = stats.NewECDF(durs).Quantile(0.9)
			}
		}
		return Point{Label: run.Cell.Interval.String(), Metrics: metrics}, nil
	})
	if err != nil {
		return res, err
	}
	res.Points = points
	return res, nil
}

// BufferSize sweeps the ToR's shared buffer capacity and reports drops
// and normalized peak occupancy on a hadoop-class rack.
func BufferSize(ctx context.Context, cfg core.Config, app workload.App, sizes []float64) (Result, error) {
	res := Result{
		Name:        "buffer-size",
		ParamName:   "buffer",
		MetricNames: []string{"drops", "drops-per-ms", "peak-frac", "hot-%"},
	}
	// Every port's egress bytes and drops plus the shared-buffer peak
	// register: enough to derive all four metrics from the sample stream.
	plan := func(rack topo.Rack, _, _ int) []collector.CounterSpec {
		out := []collector.CounterSpec{{Kind: asic.KindBufferPeak}}
		for p := 0; p < rack.NumPorts(); p++ {
			out = append(out,
				collector.CounterSpec{Port: p, Dir: asic.TX, Kind: asic.KindBytes},
				collector.CounterSpec{Port: p, Dir: asic.TX, Kind: asic.KindDrops},
			)
		}
		return out
	}
	interval := 300 * simclock.Microsecond
	threshold := analysis.DefaultHotThreshold
	for _, size := range sizes {
		c := cfg
		c.BufferBytes = size
		exp, err := core.NewExperiment(c)
		if err != nil {
			return res, err
		}
		cells := []core.Cell{{App: app, Plan: plan, Interval: interval}}
		points, err := core.RunCells(ctx, exp.Runner(), cells, func(run *core.CellRun) (Point, error) {
			split := analysis.Split(run.Samples)
			ports := run.Net.Rack().NumPorts()
			var drops, peak float64
			var hot, total int
			for _, s := range run.Samples {
				if s.Kind == asic.KindBufferPeak && float64(s.Value) > peak {
					peak = float64(s.Value)
				}
			}
			for p := 0; p < ports; p++ {
				ds := split[analysis.SeriesKey{Port: uint16(p), Dir: asic.TX, Kind: asic.KindDrops}]
				if len(ds) >= 2 {
					drops += float64(ds[len(ds)-1].Value - ds[0].Value)
				}
				bs := split[analysis.SeriesKey{Port: uint16(p), Dir: asic.TX, Kind: asic.KindBytes}]
				series, err := analysis.UtilizationSeries(bs, run.Net.Switch().Port(p).Speed())
				if err != nil {
					continue
				}
				for _, u := range series {
					total++
					if u.Util > threshold {
						hot++
					}
				}
			}
			metrics := map[string]float64{
				"drops":        drops,
				"drops-per-ms": drops / (cfg.WindowDur.Seconds() * 1000),
				"peak-frac":    peak / size,
			}
			if total > 0 {
				metrics["hot-%"] = float64(hot) / float64(total) * 100
			}
			return Point{Label: fmt.Sprintf("%.0fKB", size/1024), Metrics: metrics}, nil
		})
		if err != nil {
			return res, err
		}
		res.Points = append(res.Points, points...)
	}
	return res, nil
}

// Oversubscription sweeps the number of servers under the fixed 4×40G
// uplinks and reports the uplink share of hot samples and mean uplink
// utilization for an application.
func Oversubscription(ctx context.Context, cfg core.Config, app workload.App, serverCounts []int) (Result, error) {
	res := Result{
		Name:        "oversubscription",
		ParamName:   "servers",
		MetricNames: []string{"oversub", "uplink-share-%", "uplink-mean-%"},
	}
	uplinkBytes := func(rack topo.Rack, _, _ int) []collector.CounterSpec {
		out := make([]collector.CounterSpec, 0, rack.NumUplinks)
		for u := 0; u < rack.NumUplinks; u++ {
			out = append(out, collector.CounterSpec{Port: rack.UplinkPort(u), Dir: asic.TX, Kind: asic.KindBytes})
		}
		return out
	}
	for _, servers := range serverCounts {
		c := cfg
		c.Servers = servers
		exp, err := core.NewExperiment(c)
		if err != nil {
			return res, err
		}
		fig9, err := exp.Fig9HotPortShare(ctx)
		if err != nil {
			return res, err
		}
		// Mean uplink utilization from one representative window.
		cells := []core.Cell{{App: app, Plan: uplinkBytes, Interval: 300 * simclock.Microsecond}}
		means, err := core.RunCells(ctx, exp.Runner(), cells, func(run *core.CellRun) (float64, error) {
			rack := run.Net.Rack()
			split := analysis.Split(run.Samples)
			var mean float64
			var n int
			for u := 0; u < rack.NumUplinks; u++ {
				key := analysis.SeriesKey{Port: uint16(rack.UplinkPort(u)), Dir: asic.TX, Kind: asic.KindBytes}
				series, err := analysis.UtilizationSeries(split[key], rack.UplinkSpeed)
				if err != nil {
					continue
				}
				for _, p := range series {
					mean += p.Util
					n++
				}
			}
			if n > 0 {
				mean /= float64(n)
			}
			return mean, nil
		})
		if err != nil {
			return res, err
		}
		res.Points = append(res.Points, Point{
			Label: fmt.Sprintf("%d", servers),
			Metrics: map[string]float64{
				"oversub":        topo.Default(servers).Oversubscription(),
				"uplink-share-%": fig9.Share[app].UplinkShare() * 100,
				"uplink-mean-%":  means[0] * 100,
			},
		})
	}
	return res, nil
}

// HotThreshold sweeps the burst criterion and reports how the burst count
// and p90 duration respond (§5.4: weakly, because utilization is
// multimodal).
func HotThreshold(ctx context.Context, cfg core.Config, app workload.App, thresholds []float64) (Result, error) {
	res := Result{
		Name:        "hot-threshold",
		ParamName:   "threshold",
		MetricNames: []string{"bursts", "p90-burst-µs", "hot-%"},
	}
	exp, err := core.NewExperiment(cfg)
	if err != nil {
		return res, err
	}
	// One 25 µs single-counter campaign, every (rack, window) cell reduced
	// at every threshold as it completes.
	type cellStats struct {
		durs    [][]float64 // per threshold
		hot     []float64   // per threshold: hot fraction × samples
		samples float64
	}
	plan := exp.RandomPortCounters(app)
	cells := make([]core.Cell, cfg.Racks*cfg.Windows) // rack-major
	for i := range cells {
		cells[i] = core.Cell{App: app, RackID: i / cfg.Windows, Window: i % cfg.Windows, Plan: plan}
	}
	wins, err := core.RunCells(ctx, exp.Runner(), cells, func(run *core.CellRun) (cellStats, error) {
		port := plan(run.Net.Rack(), run.Cell.RackID, run.Cell.Window)[0].Port
		series, err := analysis.UtilizationSeries(run.Samples, run.Net.Switch().Port(port).Speed())
		if err != nil {
			return cellStats{}, err
		}
		st := cellStats{samples: float64(len(series))}
		for _, th := range thresholds {
			st.durs = append(st.durs, analysis.BurstDurations(analysis.Bursts(series, th)))
			st.hot = append(st.hot, analysis.HotFraction(series, th)*st.samples)
		}
		return st, nil
	})
	if err != nil {
		return res, err
	}
	for i, th := range thresholds {
		var durs []float64
		var hot, total float64
		for _, w := range wins {
			durs = append(durs, w.durs[i]...)
			hot += w.hot[i]
			total += w.samples
		}
		metrics := map[string]float64{
			"bursts": float64(len(durs)),
			"hot-%":  hot / total * 100,
		}
		if len(durs) > 0 {
			metrics["p90-burst-µs"] = stats.NewECDF(durs).Quantile(0.9)
		}
		res.Points = append(res.Points, Point{Label: fmt.Sprintf("%.0f%%", th*100), Metrics: metrics})
	}
	return res, nil
}
