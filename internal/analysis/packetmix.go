package analysis

import (
	"mburst/internal/asic"
	"mburst/internal/stats"
)

// sizeBinEdges converts the ASIC bin layout into histogram edges.
func sizeBinEdges() []float64 {
	edges := make([]float64, len(asic.SizeBinEdges))
	for i, e := range asic.SizeBinEdges {
		edges[i] = e
	}
	return edges
}

// NewSizeHistogram returns an empty histogram over the ASIC size bins.
func NewSizeHistogram() *stats.Histogram {
	return stats.NewHistogram(sizeBinEdges())
}

// PacketMixResult holds the Fig 5 payload: normalized packet-size
// histograms for sampling periods inside and outside bursts.
type PacketMixResult struct {
	Inside  *stats.Histogram
	Outside *stats.Histogram
	// InsidePeriods / OutsidePeriods count the classified periods.
	InsidePeriods, OutsidePeriods int
}

// LargeShift returns the relative increase of the largest-bin packet
// fraction inside bursts versus outside: (inside-outside)/outside. The
// paper reports ≈ +60% for Web, ≈ +20% for Cache, and a small positive
// shift for Hadoop (§5.3).
func (r PacketMixResult) LargeShift() float64 {
	in := r.Inside.Normalized()
	out := r.Outside.Normalized()
	last := asic.NumSizeBins - 1
	if out[last] == 0 {
		return 0
	}
	return (in[last] - out[last]) / out[last]
}
