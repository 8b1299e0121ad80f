package core

import (
	"sort"
	"strings"

	"mburst/internal/fault"
	"mburst/internal/ptrace"
	"mburst/internal/simclock"
	"mburst/internal/trace"
	"mburst/internal/wire"
)

// recordCellTrace records the full pipeline chain for one recorded cell,
// one trace per persisted wire batch (trace.WriteWindow chunks samples
// at trace.BatchSize). The single-process campaign writes windows
// directly — there is no client, service, or gate goroutine — so it
// records poll.read itself and hands the rest of the admitted chain to
// ptrace, which places every modeled span for the live path too: a
// campaign trace and a live agent → collector trace of the same batch
// are identical (TestLiveAndCampaignTracesAgree). Faults from the cell's
// schedule that overlap a batch's sample window are attributed on its
// poll.read span.
func recordCellTrace(t *ptrace.Tracer, run *CellRun, warmup simclock.Duration) {
	if t == nil || len(run.Samples) == 0 {
		return
	}
	// Sample times are absolute; fault offsets are relative to recording
	// start (poller install, after warmup).
	start := simclock.Epoch.Add(warmup)
	rack := uint32(run.Cell.RackID)
	for off := 0; off < len(run.Samples); off += trace.BatchSize {
		end := off + trace.BatchSize
		if end > len(run.Samples) {
			end = len(run.Samples)
		}
		b := &wire.Batch{Rack: rack, Samples: run.Samples[off:end]}
		tr := t.Batch(b.Rack, b.Epoch, b.Samples[0].Time)
		if !tr.Sampled() {
			continue
		}
		first := b.Samples[0].Time
		last := b.Samples[len(b.Samples)-1].Time
		n := len(b.Samples)
		bytes := wire.EncodedSize(b)

		tr.Record(ptrace.Span{Stage: ptrace.StagePollRead, Start: first, Stop: last, Samples: n, Bytes: bytes,
			Fault: overlappingFaults(run.Faults, first.Sub(start), last.Sub(start))})
		tr.Chain(last, n, bytes)
	}
}

// overlappingFaults names the fault kinds whose injection window
// intersects [lo, hi] (recording-relative offsets), sorted and
// comma-joined — "" when none do.
func overlappingFaults(s fault.Schedule, lo, hi simclock.Duration) string {
	kinds := map[string]bool{}
	for _, f := range s.Faults {
		if f.At <= hi && f.End() > lo {
			kinds[f.Kind.String()] = true
		}
	}
	if len(kinds) == 0 {
		return ""
	}
	out := make([]string, 0, len(kinds))
	for k := range kinds {
		out = append(out, k)
	}
	sort.Strings(out)
	return strings.Join(out, ",")
}
