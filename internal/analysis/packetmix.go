package analysis

import (
	"mburst/internal/asic"
	"mburst/internal/stats"
	"mburst/internal/wire"
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

// PacketMixInsideOutside classifies each sampling period as inside or
// outside a burst using the byte counter, and accumulates the same
// period's size-bin deltas into the corresponding histogram. This mirrors
// the §5.3 methodology: "Packets were binned by their size into several
// ranges and polled alongside the total byte count of the interface in
// order to classify the samples."
//
// byteSamples and binSamples must come from the same polling campaign
// (same timestamps); periods without matching bin data are skipped.
func PacketMixInsideOutside(byteSamples, binSamples []wire.Sample, speedBps uint64, threshold float64) (PacketMixResult, error) {
	acc := NewPacketMixAcc(speedBps, threshold)
	// Interleave as a campaign would, so the pairing queues stay O(1) deep.
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
