package collector

import (
	"fmt"

	"mburst/internal/ptrace"
	"mburst/internal/simclock"
	"mburst/internal/wire"
)

// This file is the collector's glue to internal/ptrace. Span windows are
// not measured: they are computed from the batch's own content (sample
// count, framed size, last sample time) through the tracer's CostModel,
// so the client, the collector service, and the campaign recorder all
// position the same batch's spans identically without exchanging clocks.
// Only reconnect backoff — a real-time phenomenon — is layered on top,
// as child spans of client.send.

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
	poll := tr.Start(ptrace.StagePollRead, first).SetBatch(n, bytes)
	if missed := missedPolls(b); missed > 0 {
		poll.SetFault(fmt.Sprintf("missed=%d", missed))
	}
	poll.End(last)

	m := t.Model()
	encStart, encEnd := m.Window(ptrace.StageWireEncode, last, n, bytes)
	enc := tr.Start(ptrace.StageWireEncode, encStart).SetBatch(n, bytes)
	enc.End(encEnd)

	sendStart, sendEnd := m.Window(ptrace.StageClientSend, last, n, bytes)
	var waited simclock.Duration
	cur := sendStart
	for _, w := range waits {
		bo := tr.Start(ptrace.StageClientBackoff, cur).SetParent(ptrace.StageClientSend)
		cur = cur.Add(w)
		bo.End(cur)
		waited += w
	}
	send := tr.Start(ptrace.StageClientSend, sendStart).SetBatch(n, bytes)
	send.End(sendEnd.Add(waited))
}

// missedPolls totals the Missed counters carried by a batch's samples.
func missedPolls(b *wire.Batch) uint64 {
	var total uint64
	for i := range b.Samples {
		total += uint64(b.Samples[i].Missed)
	}
	return total
}

// recordStageSpan records one modeled post-poll stage for a batch. The
// shared shape behind server.ingest, archive.write, and figures.apply.
func recordStageSpan(t *ptrace.Tracer, stage ptrace.Stage, b *wire.Batch) {
	tr, _, last, n, bytes := batchTrace(t, b)
	if !tr.Sampled() {
		return
	}
	start, end := t.Model().Window(stage, last, n, bytes)
	sp := tr.Start(stage, start).SetBatch(n, bytes)
	sp.End(end)
}

// recordGateSpan records the epoch.gate span with the admission verdict
// as a span attribute.
func recordGateSpan(t *ptrace.Tracer, b *wire.Batch, verdict string) {
	tr, _, last, n, bytes := batchTrace(t, b)
	if !tr.Sampled() {
		return
	}
	start, end := t.Model().Window(ptrace.StageEpochGate, last, n, bytes)
	sp := tr.Start(ptrace.StageEpochGate, start).SetVerdict(verdict)
	sp.End(end)
}
