package stats

import (
	"fmt"
	"math"
)

// MarkovModel is the two-state first-order Markov chain the paper fits to
// the hot/not-hot interval sequence (§5.1, Table 2). State 1 means the
// sampling interval was "hot" (utilization above the burst threshold).
type MarkovModel struct {
	// P[a][b] is the MLE of p(x_t = b | x_{t-1} = a).
	P [2][2]float64
	// Counts[a][b] is the number of observed a->b transitions.
	Counts [2][2]int64
	// N is the number of transitions observed (len(sequence) - 1).
	N int64
}

func boolToState(hot bool) int {
	if hot {
		return 1
	}
	return 0
}

// LikelihoodRatio returns r = p(1|1)/p(1|0), the paper's burst-correlation
// statistic. r ≈ 1 would mean burst intervals arrive independently of the
// previous interval; the paper reports r of 119.7 (Web), 45.1 (Cache) and
// 15.6 (Hadoop). The ratio is +Inf when bursts never start from a cold
// interval but do persist, and NaN when undefined.
func (m MarkovModel) LikelihoodRatio() float64 {
	p11 := m.P[1][1]
	p01 := m.P[0][1]
	if math.IsNaN(p11) || math.IsNaN(p01) {
		return math.NaN()
	}
	if p01 == 0 {
		if p11 == 0 {
			return math.NaN()
		}
		return math.Inf(1)
	}
	return p11 / p01
}

// StationaryHotFraction returns the long-run fraction of hot intervals
// implied by the fitted chain, π(1) = p01 / (p01 + p10). NaN when the chain
// is degenerate.
func (m MarkovModel) StationaryHotFraction() float64 {
	p01 := m.P[0][1]
	p10 := m.P[1][0]
	if math.IsNaN(p01) || math.IsNaN(p10) || p01+p10 == 0 {
		return math.NaN()
	}
	return p01 / (p01 + p10)
}

// MergeMarkov combines transition counts from independently fitted models
// (e.g. one per measurement window) and refits the MLE. Merging counts —
// rather than concatenating sequences — avoids fabricating a transition
// across window seams.
func MergeMarkov(models ...MarkovModel) MarkovModel {
	var a MarkovAcc
	for _, src := range models {
		a.Merge(&MarkovAcc{counts: src.Counts, n: src.N})
	}
	return a.Model()
}

// String renders the matrix in the Table 2 layout.
func (m MarkovModel) String() string {
	return fmt.Sprintf("p(0|0)=%.3f p(1|0)=%.3f p(0|1)=%.3f p(1|1)=%.3f (n=%d, r=%.1f)",
		m.P[0][0], m.P[0][1], m.P[1][0], m.P[1][1], m.N, m.LikelihoodRatio())
}
