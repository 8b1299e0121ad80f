package analysis

import (
	"fmt"

	"mburst/internal/simclock"
	"mburst/internal/wire"
)

// This file is the degradation-aware reconstruction path: it turns a
// cumulative byte-counter series that survived faults — missed intervals,
// stuck reads, agent restarts, duplicated batches — into utilization
// spans without fabricating bursts. The paper's invariant (§3, Table 1)
// is that cumulative counters lose resolution, never data: bytes between
// any two *successful* reads are exact. Reconstruction therefore widens
// spans across damaged stretches instead of trusting per-sample deltas.

// maxPhysicalUtil is the threshold above which a span's apparent
// utilization is physically impossible (counter delta exceeds line rate ×
// span) and must stem from stale reads: the preceding samples under-read
// the counter, so the catch-up span absorbs their spans until the average
// drops back into the physical range.
const maxPhysicalUtil = 1.0 + 1e-6

// GapStats accounts for what reconstruction had to repair.
type GapStats struct {
	// Points is the number of output spans.
	Points int
	// Duplicates is the number of input samples dropped as duplicates
	// (identical timestamp, e.g. a batch replayed across a reconnect).
	Duplicates int
	// MissedSpans is the number of spans covering at least one missed
	// sampling interval (Sample.Missed > 0) — resolution lost, bytes kept.
	MissedSpans int
	// Merged is the number of span merges performed to absorb physically
	// impossible catch-up deltas from stale (stuck) reads.
	Merged int
	// Bytes is the total byte count recovered across the series — by
	// construction exactly last.Value − first.Value.
	Bytes uint64
}

// GapAwareUtilization converts a cumulative byte-counter series into
// utilization spans, tolerating fault damage that UtilizationSeries
// rejects:
//
//   - Duplicate samples (equal timestamps) are dropped, provided their
//     values agree; disagreeing duplicates are corruption and error.
//   - Spans covering missed intervals simply widen (the normal Table 1
//     recovery) and are tallied in GapStats.MissedSpans.
//   - A span whose apparent utilization is physically impossible (> line
//     rate) indicates the preceding reads were stale: it is merged
//     backwards with earlier spans until the averaged utilization is
//     physical again, so a stuck stretch becomes one wide exact span
//     instead of a zero-throughput valley followed by a fabricated burst.
//
// Byte conservation holds by construction: the sum of per-span byte
// deltas equals last.Value − first.Value regardless of merging.
//
// A value regression remains an error: agent restarts do not reset ASIC
// counters, so a regression means rack mix-up or corruption, which
// widening cannot repair.
//
// This is a feed loop over GapAwareState and follows its rule for
// multiply-damaged input: the error names the first damage met in sample
// order (an early regression is reported even if a conflicting duplicate
// follows later).
func GapAwareUtilization(samples []wire.Sample, speedBps uint64) ([]UtilPoint, GapStats, error) {
	g := NewGapAwareState(speedBps)
	for _, s := range samples {
		if g.Feed(s) != nil {
			break
		}
	}
	return g.Finish()
}

// spanUtil is the average utilization of delta bytes over span at the
// given line rate.
func spanUtil(delta uint64, span simclock.Duration, speedBps uint64) float64 {
	if span <= 0 {
		return 0
	}
	return float64(delta) * 8 / (float64(speedBps) * span.Seconds())
}

// RecoveredBytes returns the exact byte total carried by a cumulative
// counter series between its first and last successful reads — the
// ground-truth quantity the chaos soak compares against the ASIC. Only
// endpoint monotonicity is required; interior damage is irrelevant
// because the counter is cumulative.
func RecoveredBytes(samples []wire.Sample) (uint64, error) {
	if len(samples) < 2 {
		return 0, fmt.Errorf("analysis: need >= 2 samples, have %d", len(samples))
	}
	first, last := samples[0], samples[len(samples)-1]
	if last.Value < first.Value {
		return 0, fmt.Errorf("analysis: byte counter regressed across series")
	}
	return last.Value - first.Value, nil
}
