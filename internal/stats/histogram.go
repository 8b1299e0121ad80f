package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Histogram is a fixed-bin counting histogram over float64 values, used for
// the packet-size distributions of Fig 5 and as a general sanity tool.
// Bin i covers [edges[i], edges[i+1]); values below the first edge or at or
// above the last are counted in Underflow/Overflow.
type Histogram struct {
	edges     []float64
	counts    []int64
	Underflow int64
	Overflow  int64
}

// NewHistogram builds a histogram with the given strictly increasing bin
// edges (at least two). It panics on invalid edges: the bin layout is
// static configuration, not data.
func NewHistogram(edges []float64) *Histogram {
	if len(edges) < 2 {
		panic("stats: histogram needs at least two edges")
	}
	for i := 1; i < len(edges); i++ {
		if !(edges[i] > edges[i-1]) {
			panic(fmt.Sprintf("stats: histogram edges not increasing at %d", i))
		}
	}
	e := make([]float64, len(edges))
	copy(e, edges)
	return &Histogram{edges: e, counts: make([]int64, len(edges)-1)}
}

// Add records one observation of value v.
func (h *Histogram) Add(v float64) { h.AddN(v, 1) }

// AddN records n observations of value v. Negative n panics.
func (h *Histogram) AddN(v float64, n int64) {
	if n < 0 {
		panic("stats: negative histogram count")
	}
	if n == 0 {
		return
	}
	switch {
	case v < h.edges[0]:
		h.Underflow += n
	case v >= h.edges[len(h.edges)-1]:
		h.Overflow += n
	default:
		i := sort.SearchFloat64s(h.edges, v)
		// SearchFloat64s returns the first edge >= v; the bin index is the
		// edge to the left unless v is exactly on an edge.
		if i < len(h.edges) && h.edges[i] == v {
			h.counts[i] += n
		} else {
			h.counts[i-1] += n
		}
	}
}

// AddBin adds n observations directly to bin i. This is how ASIC size-bin
// counters (which arrive pre-binned) are merged into a histogram.
func (h *Histogram) AddBin(i int, n int64) {
	if i < 0 || i >= len(h.counts) {
		panic(fmt.Sprintf("stats: bin %d out of range [0,%d)", i, len(h.counts)))
	}
	if n < 0 {
		panic("stats: negative histogram count")
	}
	h.counts[i] += n
}

// Count returns the count in bin i.
func (h *Histogram) Count(i int) int64 { return h.counts[i] }

// Total returns the count across all in-range bins (excluding under/overflow).
func (h *Histogram) Total() int64 {
	var t int64
	for _, c := range h.counts {
		t += c
	}
	return t
}

// Normalized returns the per-bin fraction of the in-range total, which is
// what Fig 5 plots ("normalized histogram"). An empty histogram yields all
// NaN.
func (h *Histogram) Normalized() []float64 {
	total := h.Total()
	out := make([]float64, len(h.counts))
	for i, c := range h.counts {
		if total == 0 {
			out[i] = math.NaN()
		} else {
			out[i] = float64(c) / float64(total)
		}
	}
	return out
}

// Merge adds other's bin counts into h. The two histograms must have
// identical edges.
func (h *Histogram) Merge(other *Histogram) {
	if len(h.edges) != len(other.edges) {
		panic("stats: merging histograms with different binning")
	}
	for i := range h.edges {
		if h.edges[i] != other.edges[i] {
			panic("stats: merging histograms with different binning")
		}
	}
	for i := range h.counts {
		h.counts[i] += other.counts[i]
	}
	h.Underflow += other.Underflow
	h.Overflow += other.Overflow
}

// Reset zeroes all counts.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.Underflow, h.Overflow = 0, 0
}

// String renders one line per bin: "[lo,hi) count fraction".
func (h *Histogram) String() string {
	var b strings.Builder
	norm := h.Normalized()
	for i := range h.counts {
		fmt.Fprintf(&b, "[%g,%g) %d %.4f\n", h.edges[i], h.edges[i+1], h.counts[i], norm[i])
	}
	return b.String()
}
