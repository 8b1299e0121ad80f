package analysis

import (
	"mburst/internal/simclock"
	"mburst/internal/stats"
)

// DefaultHotThreshold is the paper's burst criterion: a sampling period is
// "hot" when utilization exceeds 50% (§5.1, following [8]). §5.4 notes the
// results are insensitive to this choice because utilization is so
// multimodal — the AblationHotThreshold bench demonstrates that.
const DefaultHotThreshold = 0.5

// Burst is a maximal run of consecutive hot sampling periods (§5.1: "An
// unbroken sequence of hot samples indicates a burst").
type Burst struct {
	Start, End simclock.Time
}

// Duration returns the burst's length.
func (b Burst) Duration() simclock.Duration { return b.End.Sub(b.Start) }

// Bursts segments a utilization series into bursts at the given hot
// threshold (<= 0 selects DefaultHotThreshold).
func Bursts(series []UtilPoint, threshold float64) []Burst {
	seg := NewBurstSegmenter(SegmenterConfig{HotAbove: threshold})
	var out []Burst
	for _, p := range series {
		if tr, ok := seg.Feed(p); ok && tr.Kind == SegClose {
			out = append(out, tr.Burst)
		}
	}
	if tr, ok := seg.Flush(); ok {
		out = append(out, tr.Burst)
	}
	return out
}

// BurstDurations returns each burst's duration in microseconds — the
// Fig 3 sample set.
func BurstDurations(bursts []Burst) []float64 {
	out := make([]float64, len(bursts))
	for i, b := range bursts {
		out[i] = float64(b.Duration()) / float64(simclock.Microsecond)
	}
	return out
}

// PoissonTest runs the §5.2 Kolmogorov–Smirnov test of inter-burst gaps
// against an exponential fit: rejecting the null rejects homogeneous
// Poisson burst arrivals.
func PoissonTest(gapsMicros []float64) stats.KSResult {
	return stats.KSExponential(gapsMicros)
}

// HotFraction returns the time-weighted fraction of the series spent hot.
func HotFraction(series []UtilPoint, threshold float64) float64 {
	if threshold <= 0 {
		threshold = DefaultHotThreshold
	}
	var hot, total simclock.Duration
	for _, p := range series {
		span := p.Span()
		total += span
		if p.Util > threshold {
			hot += span
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hot) / float64(total)
}
