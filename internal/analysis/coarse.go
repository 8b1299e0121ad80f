package analysis

import (
	"fmt"

	"mburst/internal/stats"
	"mburst/internal/wire"
)

// CoarsePoint is one Fig 1 scatter point: a port observed over one
// SNMP-style window.
type CoarsePoint struct {
	// Util is the average utilization over the window.
	Util float64
	// DropRate is congestion discards per second over the window.
	DropRate float64
}

// CoarseWindow computes a CoarsePoint from byte and drop counter samples
// covering one window on one port (first and last samples bound the
// window, as SNMP deltas would).
func CoarseWindow(byteSamples, dropSamples []wire.Sample, speedBps uint64) (CoarsePoint, error) {
	if len(byteSamples) < 2 || len(dropSamples) < 2 {
		return CoarsePoint{}, fmt.Errorf("analysis: coarse window needs >= 2 samples")
	}
	bFirst, bLast := byteSamples[0], byteSamples[len(byteSamples)-1]
	dFirst, dLast := dropSamples[0], dropSamples[len(dropSamples)-1]
	span := bLast.Time.Sub(bFirst.Time)
	if span <= 0 {
		return CoarsePoint{}, fmt.Errorf("analysis: empty coarse window")
	}
	sec := span.Seconds()
	return CoarsePoint{
		Util:     float64(bLast.Value-bFirst.Value) * 8 / (float64(speedBps) * sec),
		DropRate: float64(dLast.Value-dFirst.Value) / sec,
	}, nil
}

// DropUtilCorrelation computes the Fig 1 headline number: the linear
// correlation coefficient between window utilization and drop rate across
// many port-windows. The paper measures 0.098 — drops are essentially
// uncorrelated with average utilization at SNMP granularity, which is the
// case for high-resolution measurement.
func DropUtilCorrelation(points []CoarsePoint) float64 {
	utils := make([]float64, len(points))
	drops := make([]float64, len(points))
	for i, p := range points {
		utils[i] = p.Util
		drops[i] = p.DropRate
	}
	return stats.Pearson(utils, drops)
}

// Burstiness summarizes a drop time series the way §3 reads Fig 2: drops
// arrive in bursts, with most bins empty even on ports that drop heavily.
type Burstiness struct {
	// Total is the total drop count.
	Total uint64
	// ZeroBins is the fraction of bins with no drops at all.
	ZeroBins float64
	// TopBinShare is the fraction of all drops carried by the single
	// busiest bin.
	TopBinShare float64
}

// DropBurstiness computes the Fig 2 summary for a per-bin drop series.
func DropBurstiness(bins []uint64) Burstiness {
	var b Burstiness
	if len(bins) == 0 {
		return b
	}
	var max uint64
	zero := 0
	for _, v := range bins {
		b.Total += v
		if v == 0 {
			zero++
		}
		if v > max {
			max = v
		}
	}
	b.ZeroBins = float64(zero) / float64(len(bins))
	if b.Total > 0 {
		b.TopBinShare = float64(max) / float64(b.Total)
	}
	return b
}
