package stats

// Snapshot/Restore give the three accumulators the live-figures tap
// keeps per series (MarkovAcc, ECDFAcc and MomentAcc) an explicit,
// JSON-serializable state surface: internal/collector's SeriesState
// carries one MarkovAccSnap, two ECDFAccSnaps (burst durations and
// inter-burst gaps) and one MomentAccSnap per series, and the MBC1
// checkpoint codec (collector/mbc1.go) encodes them field by field. A
// restored accumulator continues bit-identically to one that never
// stopped (proven in snapshot_test.go, including a JSON round-trip, since
// that is exactly how legacy checkpoints travel). Snapshots store raw
// state — counts, sums, values — never derived statistics, so
// NaN-producing finalizers (Model, Mean) stay out of the encoding, which
// JSON cannot carry.
//
// MarkovAcc.Merge is the one accumulator merge: internal/core reduces
// Table 2's per-window transition counts with it, and MergeMarkov (which
// LiveFigures.Snapshot calls to pool its per-series fits) is built on it.

// ECDFAccSnap is the serializable state of an ECDFAcc.
type ECDFAccSnap struct {
	Values []float64 `json:"values"`
}

// Snapshot captures the accumulator's state. The returned slice is a
// copy; the accumulator may keep growing.
func (a *ECDFAcc) Snapshot() ECDFAccSnap {
	return ECDFAccSnap{Values: append([]float64(nil), a.values...)}
}

// Restore replaces the accumulator's state with a snapshot. Continuing
// to Add afterwards is bit-identical to never having stopped.
func (a *ECDFAcc) Restore(s ECDFAccSnap) {
	a.values = append(a.values[:0], s.Values...)
}

// MarkovAccSnap is the serializable state of a MarkovAcc, including the
// in-progress sequence seam (prev/primed) so a restored accumulator
// continues the interrupted sequence without fabricating a transition.
type MarkovAccSnap struct {
	Counts [2][2]int64 `json:"counts"`
	N      int64       `json:"n"`
	Prev   bool        `json:"prev"`
	Primed bool        `json:"primed"`
}

// Snapshot captures the accumulator's state.
func (a *MarkovAcc) Snapshot() MarkovAccSnap {
	return MarkovAccSnap{Counts: a.counts, N: a.n, Prev: a.prev, Primed: a.primed}
}

// Restore replaces the accumulator's state with a snapshot.
func (a *MarkovAcc) Restore(s MarkovAccSnap) {
	a.counts, a.n, a.prev, a.primed = s.Counts, s.N, s.Prev, s.Primed
}

// Merge adds o's transition counts to a's — the MergeMarkov identity at
// the accumulator level. Sequences do not splice across the merge: a's
// in-progress sequence continues unchanged, and o's open seam (if any)
// is dropped, exactly as if both sides had called EndSequence before
// their windows were combined.
func (a *MarkovAcc) Merge(o *MarkovAcc) {
	for s := 0; s < 2; s++ {
		for t := 0; t < 2; t++ {
			a.counts[s][t] += o.counts[s][t]
		}
	}
	a.n += o.n
}

// MomentAccSnap is the serializable state of a MomentAcc. Min/Max are
// stored raw (meaningful only when N > 0), keeping NaN out of the JSON.
type MomentAccSnap struct {
	N   int64   `json:"n"`
	Sum float64 `json:"sum"`
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

// Snapshot captures the accumulator's state.
func (a *MomentAcc) Snapshot() MomentAccSnap {
	return MomentAccSnap{N: a.n, Sum: a.sum, Min: a.min, Max: a.max}
}

// Restore replaces the accumulator's state with a snapshot.
func (a *MomentAcc) Restore(s MomentAccSnap) {
	a.n, a.sum, a.min, a.max = s.N, s.Sum, s.Min, s.Max
}
