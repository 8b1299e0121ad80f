package ptrace

import "mburst/internal/simclock"

// StageCost models one post-poll stage's latency as an affine function of
// the batch: Fixed + PerSample·samples + PerBytePs·bytes. All integer
// arithmetic — the model must be bit-reproducible across architectures.
type StageCost struct {
	// Fixed is the per-batch setup cost.
	Fixed simclock.Duration
	// PerSample is the marginal cost per sample.
	PerSample simclock.Duration
	// PerBytePs is the marginal cost per framed wire byte, in picoseconds
	// (sub-nanosecond per-byte rates — a 10 Gb/s link moves a byte in
	// 800 ps — do not fit a Duration).
	PerBytePs int64
}

// Dur evaluates the model for a batch of the given sample count and
// framed byte size.
func (c StageCost) Dur(samples, bytes int) simclock.Duration {
	return c.Fixed +
		c.PerSample*simclock.Duration(samples) +
		simclock.Duration(int64(bytes)*c.PerBytePs/1000)
}

// CostModel positions every post-poll stage of a batch's chain. The
// stages run back-to-back from the batch's final poll completion:
// encode, send, ingest, gate, archive, figures. Because the inputs
// (sample count, framed byte size, last sample time) are batch content,
// the client, the collector, and the campaign recorder independently
// compute identical span windows — that is what makes cross-process
// traces line up without any clock exchange.
type CostModel struct {
	Encode  StageCost
	Send    StageCost
	Ingest  StageCost
	Gate    StageCost
	Archive StageCost
	Figures StageCost
}

// DefaultCostModel returns the standard pipeline model. The constants
// are order-of-magnitude calibrations for the reference pipeline: varint
// encoding tens of ns/sample, a 10 Gb/s-class send path at 800 ps/byte,
// decode slightly costlier than encode, a constant-time gate, a
// disk-bound archive, and a cheap streaming-figures update.
func DefaultCostModel() CostModel {
	return CostModel{
		Encode:  StageCost{Fixed: 200, PerSample: 15},
		Send:    StageCost{Fixed: 5 * simclock.Microsecond, PerBytePs: 800},
		Ingest:  StageCost{Fixed: 300, PerSample: 20},
		Gate:    StageCost{Fixed: 400},
		Archive: StageCost{Fixed: 10 * simclock.Microsecond, PerBytePs: 2000},
		Figures: StageCost{Fixed: 100, PerSample: 25},
	}
}

// chain returns the post-poll stages in execution order with their
// models.
func (m CostModel) chain() [6]struct {
	stage Stage
	cost  StageCost
} {
	return [6]struct {
		stage Stage
		cost  StageCost
	}{
		{StageWireEncode, m.Encode},
		{StageClientSend, m.Send},
		{StageServerIngest, m.Ingest},
		{StageEpochGate, m.Gate},
		{StageArchiveWrite, m.Archive},
		{StageFiguresApply, m.Figures},
	}
}

// Window returns the modeled [start, stop] of stage for a batch whose
// final poll completed at pollEnd, with the given sample count and
// framed byte size. Requesting StagePollRead (whose extent is measured,
// not modeled) or an unknown stage returns [pollEnd, pollEnd].
func (m CostModel) Window(stage Stage, pollEnd simclock.Time, samples, bytes int) (simclock.Time, simclock.Time) {
	cur := pollEnd
	for _, link := range m.chain() {
		d := link.cost.Dur(samples, bytes)
		if link.stage == stage {
			return cur, cur.Add(d)
		}
		cur = cur.Add(d)
	}
	return pollEnd, pollEnd
}
