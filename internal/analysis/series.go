// Package analysis turns raw counter samples into the paper's results:
// burst segmentation and duration CDFs (Fig 3), inter-burst gaps and the
// Poisson test (Fig 4, §5.2), Markov burst models (Table 2), packet-size
// mixes inside and outside bursts (Fig 5), utilization distributions
// (Fig 6), uplink load-balance deviation (Fig 7), server correlation
// matrices (Fig 8), hot-port directionality (Fig 9), buffer-occupancy
// versus hot ports (Fig 10), and the coarse-grained SNMP-style views that
// motivate the study (Figs 1–2).
//
// Each per-series algorithm is implemented once, as a single-pass
// accumulator in stream.go (UtilState, BurstSegmenter, RebinAcc,
// GapAwareState, PacketMixAcc, BufferWindowAcc, DropBinAcc), and the
// campaign's figure runners in internal/core and the collector's
// live-figures tap feed them directly. A
// slice-taking feed loop exists only where a caller holds a slice:
// UtilizationSeries, Bursts and BufferVsHotPorts (the examples, sweep
// and fabric), and GapAwareUtilization (the chaos soak). Cross-series
// reductions with no streaming form (AlignedMatrix, UplinkMAD,
// ServerCorrelation, ...) take slices only. Only UtilState and
// BurstSegmenter have a snapshot (snapshot.go): they are what the
// collector's checkpoint carries per series. Nothing here keeps state
// between calls or reads a clock.
package analysis

import (
	"fmt"
	"sort"

	"mburst/internal/asic"
	"mburst/internal/simclock"
	"mburst/internal/wire"
)

// SeriesKey identifies one counter instance within a mixed sample stream.
type SeriesKey struct {
	Port uint16
	Dir  asic.Direction
	Kind asic.CounterKind
}

// String formats the key.
func (k SeriesKey) String() string {
	return fmt.Sprintf("port%d/%s/%s", k.Port, k.Dir, k.Kind)
}

// Split partitions a mixed sample stream by counter instance, preserving
// order. Campaigns that poll several counters per loop iteration emit
// interleaved streams; Split recovers the per-counter series.
func Split(samples []wire.Sample) map[SeriesKey][]wire.Sample {
	out := make(map[SeriesKey][]wire.Sample)
	for _, s := range samples {
		k := SeriesKey{Port: s.Port, Dir: s.Dir, Kind: s.Kind}
		out[k] = append(out[k], s)
	}
	return out
}

// UtilPoint is the utilization of a link over one observation span.
type UtilPoint struct {
	// Start/End bound the span (successive sample timestamps).
	Start, End simclock.Time
	// Util is the average utilization over the span in [0, ~1].
	Util float64
}

// Span returns the point's duration.
func (p UtilPoint) Span() simclock.Duration { return p.End.Sub(p.Start) }

// UtilizationSeries converts a cumulative byte-counter series into
// per-span utilization. Each output point covers the span between two
// successive samples — this is exactly the paper's recovery path for
// missed intervals: byte counts are cumulative and timestamps correct, so
// throughput over the (longer) span is still exact (Table 1 caption).
//
// speedBps is the port's line rate. An error is returned for series that
// are too short, out of order, or with regressing byte counts.
func UtilizationSeries(samples []wire.Sample, speedBps uint64) ([]UtilPoint, error) {
	u := NewUtilState(speedBps)
	out := make([]UtilPoint, 0, max(len(samples)-1, 0))
	for _, s := range samples {
		p, ok, err := u.Feed(s)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, p)
		}
	}
	if err := u.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// Utils extracts the utilization values of a series (for ECDFs, Fig 6).
func Utils(series []UtilPoint) []float64 {
	out := make([]float64, len(series))
	for i, p := range series {
		out[i] = p.Util
	}
	return out
}

// AlignedMatrix resamples several per-port utilization series onto the
// union of their span boundaries and returns, for each port, the
// utilization value applying in each aligned slot. Campaigns that poll
// several ports in one loop iteration produce naturally aligned series;
// this function also tolerates small misalignment from missed intervals.
//
// The returned slots (second value) give each aligned span. Ports missing
// data for a slot carry their covering span's utilization.
func AlignedMatrix(series [][]UtilPoint) ([][]float64, []UtilPoint) {
	if len(series) == 0 {
		return nil, nil
	}
	// Collect the union of boundaries.
	boundSet := make(map[simclock.Time]struct{})
	for _, s := range series {
		for _, p := range s {
			boundSet[p.Start] = struct{}{}
			boundSet[p.End] = struct{}{}
		}
	}
	bounds := make([]simclock.Time, 0, len(boundSet))
	for t := range boundSet {
		bounds = append(bounds, t)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	if len(bounds) < 2 {
		return nil, nil
	}
	slots := make([]UtilPoint, len(bounds)-1)
	for i := range slots {
		slots[i] = UtilPoint{Start: bounds[i], End: bounds[i+1]}
	}
	matrix := make([][]float64, len(series))
	for si, s := range series {
		row := make([]float64, len(slots))
		pi := 0
		for bi := range slots {
			mid := slots[bi].Start.Add(slots[bi].End.Sub(slots[bi].Start) / 2)
			for pi < len(s) && !s[pi].End.After(mid) {
				pi++
			}
			if pi < len(s) && !s[pi].Start.After(mid) {
				row[bi] = s[pi].Util
			}
		}
		matrix[si] = row
	}
	return matrix, slots
}
