package ptrace

import "mburst/internal/simclock"

// chain is the post-poll stage chain in execution order. The stages run
// back-to-back from the batch's final poll completion, each modeled as an
// affine function of the batch: fixed + perSample·samples +
// perBytePs·bytes/1000, in integer arithmetic so the model is
// bit-reproducible across architectures (perBytePs is in picoseconds: a
// 10 Gb/s link moves a byte in 800 ps, which does not fit a Duration).
// Because the inputs are batch content, the client, the collector and the
// campaign recorder compute identical windows without exchanging clocks.
// The constants are order-of-magnitude calibrations for the reference
// pipeline: varint encoding tens of ns/sample, a 10 Gb/s-class send path,
// decode slightly costlier than encode, a constant-time gate, a
// disk-bound archive, and a cheap streaming-figures update.
var chain = [...]struct {
	stage     Stage
	fixed     simclock.Duration
	perSample simclock.Duration
	perBytePs int64
}{
	{stage: StageWireEncode, fixed: 200, perSample: 15},
	{stage: StageClientSend, fixed: 5 * simclock.Microsecond, perBytePs: 800},
	{stage: StageServerIngest, fixed: 300, perSample: 20},
	{stage: StageEpochGate, fixed: 400},
	{stage: StageArchiveWrite, fixed: 10 * simclock.Microsecond, perBytePs: 2000},
	{stage: StageFiguresApply, fixed: 100, perSample: 25},
}

// Window returns the modeled [start, stop] of stage for a batch whose
// final poll completed at last, with the given sample count and framed
// byte size. A stage outside the chain — poll.read, whose extent is
// measured, and the durability markers — returns [last, last].
func Window(stage Stage, last simclock.Time, samples, bytes int) (simclock.Time, simclock.Time) {
	cur := last
	for _, c := range chain {
		stop := cur.Add(c.fixed +
			c.perSample*simclock.Duration(samples) +
			simclock.Duration(int64(bytes)*c.perBytePs/1000))
		if c.stage == stage {
			return cur, stop
		}
		cur = stop
	}
	return last, last
}

// Modeled publishes stage's modeled span for a batch whose final poll
// completed at last, carrying the batch shape and verdict ("" for none).
// An unsampled trace returns before any window arithmetic.
func (tr Trace) Modeled(stage Stage, last simclock.Time, samples, bytes int, verdict string) {
	if tr.t == nil {
		return
	}
	start, stop := Window(stage, last, samples, bytes)
	tr.Record(Span{Stage: stage, Start: start, Stop: stop, Samples: samples, Bytes: bytes, Verdict: verdict})
}

// Chain publishes every modeled span of a batch the epoch gate admitted,
// the gate's carrying VerdictAccept.
func (tr Trace) Chain(last simclock.Time, samples, bytes int) {
	for _, c := range chain {
		verdict := ""
		if c.stage == StageEpochGate {
			verdict = VerdictAccept
		}
		tr.Modeled(c.stage, last, samples, bytes, verdict)
	}
}
