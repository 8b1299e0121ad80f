package collector

import (
	"fmt"

	"mburst/internal/ptrace"
	"mburst/internal/simclock"
	"mburst/internal/wire"
)

// This file is the collector's glue to internal/ptrace, which alone places
// every modeled span: the client, the service and the shard hand it a
// batch's content (sample count, framed size, last sample time) and it
// positions the span, so they and the campaign recorder record the same
// batch identically without exchanging clocks. Only what is measured is
// recorded here: poll.read's sample window and reconnect backoff — a
// real-time phenomenon — as child spans stretching client.send.

// batchTrace resolves a batch to its trace handle plus the modeled
// inputs. The zero Trace (unsampled, nil tracer, empty batch) records
// nothing downstream.
func batchTrace(t *ptrace.Tracer, b *wire.Batch) (tr ptrace.Trace, first, last simclock.Time, n, bytes int) {
	if t == nil || len(b.Samples) == 0 {
		return ptrace.Trace{}, 0, 0, 0, 0
	}
	n = len(b.Samples)
	first = b.Samples[0].Time
	last = b.Samples[n-1].Time
	return t.Batch(b.Rack, b.Epoch, first), first, last, n, wire.EncodedSize(b)
}

// recordSendSpans records the client-side half of a batch's chain at
// flush time: poll.read spanning the batch's sample window (a stalled
// read widens it — that is how fault stalls become visible), the modeled
// wire.encode, and client.send. Reconnect waits, if any, stretch
// client.send and appear as sequential client.backoff children.
func recordSendSpans(t *ptrace.Tracer, b *wire.Batch, waits []simclock.Duration) {
	tr, first, last, n, bytes := batchTrace(t, b)
	if !tr.Sampled() {
		return
	}
	poll := ptrace.Span{Stage: ptrace.StagePollRead, Start: first, Stop: last, Samples: n, Bytes: bytes}
	if missed := missedPolls(b); missed > 0 {
		poll.Fault = fmt.Sprintf("missed=%d", missed)
	}
	tr.Record(poll)

	tr.Modeled(ptrace.StageWireEncode, last, n, bytes, "")

	sendStart, sendEnd := ptrace.Window(ptrace.StageClientSend, last, n, bytes)
	cur := sendStart
	for _, w := range waits {
		tr.Record(ptrace.Span{Stage: ptrace.StageClientBackoff, Parent: ptrace.StageClientSend, Start: cur, Stop: cur.Add(w)})
		cur = cur.Add(w)
	}
	tr.Record(ptrace.Span{Stage: ptrace.StageClientSend, Start: sendStart, Stop: sendEnd.Add(cur.Sub(sendStart)), Samples: n, Bytes: bytes})
}

// missedPolls totals the Missed counters carried by a batch's samples.
func missedPolls(b *wire.Batch) uint64 {
	var total uint64
	for i := range b.Samples {
		total += uint64(b.Samples[i].Missed)
	}
	return total
}

// recordStageSpan records one modeled stage for a batch, with the epoch
// gate's verdict on epoch.gate and "" elsewhere.
func recordStageSpan(t *ptrace.Tracer, stage ptrace.Stage, b *wire.Batch, verdict string) {
	tr, _, last, n, bytes := batchTrace(t, b)
	tr.Modeled(stage, last, n, bytes, verdict)
}
