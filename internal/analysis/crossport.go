package analysis

import (
	"mburst/internal/simclock"
	"mburst/internal/stats"
	"mburst/internal/wire"
)

// UplinkMAD computes, for every aligned sampling slot, the normalized mean
// absolute deviation of the uplinks' utilization — the Fig 7 metric. The
// input is one utilization series per uplink (egress or ingress). A slot
// where every uplink is idle is "perfectly balanced" (MAD 0); the paper's
// CDFs include such slots.
func UplinkMAD(uplinks [][]UtilPoint) []float64 {
	matrix, slots := AlignedMatrix(uplinks)
	if len(slots) == 0 {
		return nil
	}
	out := make([]float64, 0, len(slots))
	vals := make([]float64, len(matrix))
	for si := range slots {
		for ui := range matrix {
			vals[ui] = matrix[ui][si]
		}
		out = append(out, stats.NormalizedMAD(vals))
	}
	return out
}

// ServerCorrelation computes the Fig 8 heatmap: the Pearson correlation
// matrix of per-server utilization series (ToR→server direction in the
// paper; ingress and egress "were almost identical").
func ServerCorrelation(servers [][]UtilPoint) [][]float64 {
	matrix, _ := AlignedMatrix(servers)
	return stats.CorrelationMatrix(matrix)
}

// GroupBlockScore summarizes how "blocky" a correlation matrix is for a
// known group partition: the mean within-group off-diagonal correlation
// minus the mean across-group correlation. Cache racks show strong blocks
// (score ≫ 0); Web racks show none (≈ 0).
func GroupBlockScore(corr [][]float64, groupOf []int) float64 {
	if len(corr) != len(groupOf) {
		panic("analysis: group labels do not match matrix size")
	}
	var within, across float64
	var nw, na int
	for i := range corr {
		for j := i + 1; j < len(corr); j++ {
			v := corr[i][j]
			if v != v { // NaN
				continue
			}
			if groupOf[i] == groupOf[j] {
				within += v
				nw++
			} else {
				across += v
				na++
			}
		}
	}
	if nw == 0 || na == 0 {
		return 0
	}
	return within/float64(nw) - across/float64(na)
}

// HotShare is the Fig 9 payload: how hot samples distribute between
// uplinks and downlinks.
type HotShare struct {
	UplinkHot   int
	DownlinkHot int
}

// UplinkShare returns the fraction of hot samples that were uplinks.
func (h HotShare) UplinkShare() float64 {
	total := h.UplinkHot + h.DownlinkHot
	if total == 0 {
		return 0
	}
	return float64(h.UplinkHot) / float64(total)
}

// BufferWindow is one Fig 10 observation: a 50 ms span's peak shared
// buffer occupancy versus how many ports ran hot within it.
type BufferWindow struct {
	Start    simclock.Time
	HotPorts int
	// PeakBytes is the maximum buffer-peak reading within the window.
	PeakBytes float64
}

// BufferVsHotPorts builds the Fig 10 data set. ports holds one
// utilization series per port; peaks is the buffer-peak sample series
// (clear-on-read values). window is the grouping span (50 ms in the
// paper). The returned slice is ordered by window start.
func BufferVsHotPorts(ports [][]UtilPoint, peaks []wire.Sample, window simclock.Duration, threshold float64) ([]BufferWindow, error) {
	acc, err := NewBufferWindowAcc(window, threshold)
	if err != nil {
		return nil, err
	}
	for pi, s := range ports {
		for _, p := range s {
			acc.ObserveUtil(pi, p)
		}
	}
	for _, s := range peaks {
		acc.ObservePeak(s)
	}
	return acc.Windows(), nil
}

// BufferBoxplots groups Fig 10 windows by hot-port count and summarizes
// the (normalized) peak occupancy of each group. Peaks are normalized by
// the maximum observed across all windows, as in the paper ("we normalize
// the occupancy to the maximum value we observed in any of our data
// sets"). The map key is the hot-port count.
func BufferBoxplots(windows []BufferWindow) map[int]stats.BoxplotSummary {
	var maxPeak float64
	for _, w := range windows {
		if w.PeakBytes > maxPeak {
			maxPeak = w.PeakBytes
		}
	}
	groups := make(map[int][]float64)
	for _, w := range windows {
		v := 0.0
		if maxPeak > 0 {
			v = w.PeakBytes / maxPeak
		}
		groups[w.HotPorts] = append(groups[w.HotPorts], v)
	}
	out := make(map[int]stats.BoxplotSummary, len(groups))
	for k, vs := range groups {
		out[k] = stats.Boxplot(vs)
	}
	return out
}

// MaxHotPortFraction returns the largest fraction of ports simultaneously
// hot in any window — §6.4's "Hadoop sometimes drove 100% of its ports to
// >50% utilization; Web and Cache only drove a maximum of 71% and 64%".
func MaxHotPortFraction(windows []BufferWindow, numPorts int) float64 {
	if numPorts <= 0 {
		return 0
	}
	maxHot := 0
	for _, w := range windows {
		if w.HotPorts > maxHot {
			maxHot = w.HotPorts
		}
	}
	return float64(maxHot) / float64(numPorts)
}
