package stats

import "math"

// This file holds the streaming counterparts of the batch estimators: the
// accumulators the single-pass analysis engine (internal/analysis's
// SeriesDemux/BurstSegmenter and the mbcollectd live-figures tap) feeds
// one observation at a time. They are exact, not sketched: every
// accumulator reproduces, bit for bit, what the batch function computes on
// the concatenated inputs, preserving the repository's byte-identical
// campaign guarantee. Bounded-memory approximations would trade that away
// for nothing — the values the streaming paths retain (burst durations,
// inter-burst gaps, transition counts) are sparse relative to the sample
// stream, so exactness is affordable.

// ECDFAcc collects sample values incrementally for an exact empirical
// CDF. ECDF() is byte-identical to NewECDF over the same values in any
// order (the ECDF sorts); Values() preserves insertion order so callers
// that need the batch path's exact append order (e.g. for order-sensitive
// float reductions like the KS test's mean) can replay it. The zero value
// is ready to use.
type ECDFAcc struct {
	values []float64
}

// Add records one value.
//
// Per sample: amortized slice growth only (TestECDFAccAddAllocatesNothing).
func (a *ECDFAcc) Add(v float64) { a.values = append(a.values, v) }

// AddAll records a batch of values in order.
//
// Per batch: amortized slice growth only
// (TestECDFAccAddAllAllocatesNothing).
func (a *ECDFAcc) AddAll(vs ...float64) { a.values = append(a.values, vs...) }

// N returns the number of values recorded.
func (a *ECDFAcc) N() int { return len(a.values) }

// Values returns the recorded values in insertion order. The slice is
// owned by the accumulator and must not be modified.
func (a *ECDFAcc) Values() []float64 { return a.values }

// ECDF finalizes the accumulator into an ECDF — identical to
// NewECDF(a.Values()). The accumulator remains usable; later Adds are
// not reflected in already-built ECDFs.
func (a *ECDFAcc) ECDF() *ECDF { return NewECDF(a.values) }

// MarkovAcc fits the two-state first-order Markov chain incrementally.
// Observations within one sequence contribute transitions; EndSequence
// marks a seam (a window boundary) across which no transition is
// fabricated. Model() is byte-identical to
//
//	MergeMarkov(FitMarkov(seq1), FitMarkov(seq2), ...)
//
// over the per-sequence hot/not-hot slices, which is exactly how Table 2
// merges per-window fits. The zero value is ready to use.
type MarkovAcc struct {
	counts [2][2]int64
	n      int64
	prev   bool
	primed bool
}

// Observe records the next hot/not-hot interval of the current sequence.
//
// Per interval on the streaming figure path: allocation-free
// (TestMarkovAccObserveAllocatesNothing).
func (a *MarkovAcc) Observe(hot bool) {
	if a.primed {
		a.counts[boolToState(a.prev)][boolToState(hot)]++
		a.n++
	}
	a.prev = hot
	a.primed = true
}

// EndSequence closes the current sequence: the next Observe starts a
// fresh one, so no transition spans the seam.
func (a *MarkovAcc) EndSequence() { a.primed = false }

// N returns the number of transitions observed.
func (a *MarkovAcc) N() int64 { return a.n }

// Model finalizes the accumulated counts into the MLE transition matrix.
// An accumulator that saw fewer than two observations in every sequence
// yields the same all-NaN model as FitMarkov on a short sequence.
func (a *MarkovAcc) Model() MarkovModel {
	m := MarkovModel{Counts: a.counts, N: a.n}
	for s := 0; s < 2; s++ {
		rowTotal := m.Counts[s][0] + m.Counts[s][1]
		for t := 0; t < 2; t++ {
			if rowTotal == 0 {
				m.P[s][t] = math.NaN()
			} else {
				m.P[s][t] = float64(m.Counts[s][t]) / float64(rowTotal)
			}
		}
	}
	return m
}

// MomentAcc accumulates count, sum and extrema in one pass. Mean() sums
// left to right, matching the batch loops it replaces (`for … { sum += v
// }; sum/n`), so replacing a batch mean with a MomentAcc fed in the same
// order is bit-identical. For exact deviation statistics (MAD, quantiles)
// keep the values in an ECDFAcc and finalize with NormalizedMAD or
// ECDF(): those statistics have no exact O(1) streaming form, and this
// package does not sketch. The zero value is ready to use.
type MomentAcc struct {
	n        int64
	sum      float64
	min, max float64
}

// Add records one value.
//
// Per sample: allocation-free (TestMomentAccAddAllocatesNothing).
func (a *MomentAcc) Add(v float64) {
	if a.n == 0 || v < a.min {
		a.min = v
	}
	if a.n == 0 || v > a.max {
		a.max = v
	}
	a.n++
	a.sum += v
}

// N returns the number of values recorded.
func (a *MomentAcc) N() int64 { return a.n }

// Sum returns the left-to-right sum of recorded values.
func (a *MomentAcc) Sum() float64 { return a.sum }

// Mean returns Sum()/N(), or NaN when empty.
func (a *MomentAcc) Mean() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.sum / float64(a.n)
}

// Min returns the smallest recorded value, or NaN when empty.
func (a *MomentAcc) Min() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.min
}

// Max returns the largest recorded value, or NaN when empty.
func (a *MomentAcc) Max() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.max
}
