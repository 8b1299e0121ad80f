package fabric

import (
	"fmt"
	"math"

	"mburst/internal/analysis"
	"mburst/internal/asic"
	"mburst/internal/simclock"
	"mburst/internal/stats"
)

// TierStats summarizes the burstiness of one tier's ports.
type TierStats struct {
	// Ports is the number of port series aggregated.
	Ports int
	// MeanUtil is the average utilization across ports and samples.
	MeanUtil float64
	// CoV is the coefficient of variation (σ/µ) of the utilization
	// samples — the scale-free burstiness measure used for the tier
	// comparison: aggregation should shrink it.
	CoV float64
	// HotFrac is the fraction of samples above the hot threshold.
	HotFrac float64
	// BurstsPerSecond is the rate of distinct bursts observed.
	BurstsPerSecond float64
}

// seriesStats computes TierStats over a set of utilization series.
func seriesStats(series [][]analysis.UtilPoint, threshold float64, dur simclock.Duration) TierStats {
	st := TierStats{Ports: len(series)}
	var all []float64
	bursts := 0
	for _, s := range series {
		all = append(all, analysis.Utils(s)...)
		bursts += len(analysis.Bursts(s, threshold))
	}
	if len(all) == 0 {
		return st
	}
	st.MeanUtil = stats.Mean(all)
	if st.MeanUtil > 0 {
		st.CoV = stats.StdDev(all) / st.MeanUtil
	}
	hot := 0
	for _, u := range all {
		if u > threshold {
			hot++
		}
	}
	st.HotFrac = float64(hot) / float64(len(all))
	if secs := dur.Seconds(); secs > 0 && len(series) > 0 {
		st.BurstsPerSecond = float64(bursts) / secs / float64(len(series))
	}
	return st
}

// Comparison holds the ToR-vs-fabric tier measurement.
type Comparison struct {
	Interval simclock.Duration
	ToR      TierStats // ToR server-facing egress ports
	Uplink   TierStats // ToR uplink egress ports
	Spine    TierStats // fabric spine-facing egress ports
}

// Format renders the comparison.
func (c Comparison) Format() string {
	row := func(name string, s TierStats) string {
		return fmt.Sprintf("  %-7s ports=%2d mean=%5.1f%% CoV=%5.2f hot=%6.2f%% bursts/s=%6.1f",
			name, s.Ports, s.MeanUtil*100, s.CoV, s.HotFrac*100, s.BurstsPerSecond)
	}
	return fmt.Sprintf("Tier comparison @%v (paper §4.2: ToRs burstier than higher tiers)\n%s\n%s\n%s",
		c.Interval, row("tor", c.ToR), row("uplink", c.Uplink), row("spine", c.Spine))
}

// CompareTiers runs the cluster for dur, sampling every port of interest
// at the given interval, and returns per-tier burstiness statistics. The
// cluster should already be warmed up.
func CompareTiers(c *Cluster, dur, interval simclock.Duration, threshold float64) (Comparison, error) {
	if interval <= 0 || dur < 2*interval {
		return Comparison{}, fmt.Errorf("fabric: need dur >= 2×interval, got %v / %v", dur, interval)
	}
	if threshold <= 0 {
		threshold = analysis.DefaultHotThreshold
	}
	shape := c.Shape()
	samples := int(dur.Ticks(interval))

	type probe struct {
		read  func() uint64
		speed uint64
		prev  uint64
		tier  int // 0 tor downlink, 1 tor uplink, 2 spine
	}
	var probes []*probe
	for r := 0; r < c.NumRacks(); r++ {
		sw := c.Rack(r).Switch()
		for s := 0; s < shape.NumServers; s++ {
			port := sw.Port(s)
			probes = append(probes, &probe{read: func() uint64 { return port.Bytes(asic.TX) }, speed: port.Speed(), tier: 0})
		}
		for u := 0; u < shape.NumUplinks; u++ {
			port := sw.Port(shape.UplinkPort(u))
			probes = append(probes, &probe{read: func() uint64 { return port.Bytes(asic.TX) }, speed: port.Speed(), tier: 1})
		}
	}
	for f := 0; f < c.NumFabrics(); f++ {
		sw := c.Fabric(f)
		for s := 0; s < spinePorts; s++ {
			port := sw.Port(c.SpinePort(s))
			probes = append(probes, &probe{read: func() uint64 { return port.Bytes(asic.TX) }, speed: port.Speed(), tier: 2})
		}
	}

	series := make([][]analysis.UtilPoint, len(probes))
	for _, p := range probes {
		p.prev = p.read()
	}
	now := c.Now()
	for i := 0; i < samples; i++ {
		c.Run(interval)
		next := now.Add(interval)
		for pi, p := range probes {
			cur := p.read()
			util := float64(cur-p.prev) * 8 / (float64(p.speed) * interval.Seconds())
			p.prev = cur
			series[pi] = append(series[pi], analysis.UtilPoint{Start: now, End: next, Util: util})
		}
		now = next
	}

	group := func(tier int) [][]analysis.UtilPoint {
		var out [][]analysis.UtilPoint
		for pi, p := range probes {
			if p.tier == tier {
				out = append(out, series[pi])
			}
		}
		return out
	}
	cmp := Comparison{
		Interval: interval,
		ToR:      seriesStats(group(0), threshold, dur),
		Uplink:   seriesStats(group(1), threshold, dur),
		Spine:    seriesStats(group(2), threshold, dur),
	}
	if math.IsNaN(cmp.ToR.MeanUtil) || math.IsNaN(cmp.Spine.MeanUtil) {
		return cmp, fmt.Errorf("fabric: degenerate measurement")
	}
	return cmp, nil
}
