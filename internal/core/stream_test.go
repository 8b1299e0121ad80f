package core

import (
	"context"
	"runtime"
	"testing"

	"mburst/internal/analysis"
	"mburst/internal/simclock"
	"mburst/internal/trace"
	"mburst/internal/workload"
)

// recordLargeWindowTrace records the reference large-window campaign the
// allocation comparison analyzes: two 200 ms windows of one rack, every
// port's byte counter at the 25 µs campaign interval — tens of thousands
// of samples per window, so the materializing reference's whole-window
// read dominates what it allocates.
func recordLargeWindowTrace(t *testing.T) *trace.Reader {
	t.Helper()
	cfg := QuickConfig()
	cfg.Servers = 8
	cfg.Windows = 2
	cfg.WindowDur = 200 * simclock.Millisecond
	exp, err := NewExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	err = exp.RecordCampaign(context.Background(), workload.Hadoop, dir,
		ByteCampaignInterval, "streaming allocation comparison", AllPortCounters(false))
	if err != nil {
		t.Fatal(err)
	}
	r, err := trace.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// allocatedBy runs analyze over r and returns its result and the bytes it
// allocated (the process's TotalAlloc delta; no test in this package runs
// in parallel with another).
func allocatedBy(t *testing.T, r *trace.Reader, analyze analyzeFunc) (*TraceAnalysis, uint64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := analyze(r, "bursts", analysis.DefaultHotThreshold)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return res, after.TotalAlloc - before.TotalAlloc
}

// TestAnalyzeTraceAllocatesFiveTimesLess holds AnalyzeTrace, which keeps
// O(active series) state, to at least 5x fewer allocated bytes than the
// materializing refAnalyzeTrace on the same trace — and to its result.
func TestAnalyzeTraceAllocatesFiveTimesLess(t *testing.T) {
	r := recordLargeWindowTrace(t)
	want, refBytes := allocatedBy(t, r, refAnalyzeTrace)
	got, streamBytes := allocatedBy(t, r, AnalyzeTrace)
	assertStreamEqual(t, "large-window trace", want, got)
	ratio := float64(refBytes) / float64(streamBytes)
	t.Logf("allocated: materializing reference %d B, AnalyzeTrace %d B (%.1fx)", refBytes, streamBytes, ratio)
	if ratio < 5 {
		t.Errorf("AnalyzeTrace allocates only %.1fx less than the materializing reference, want >= 5x (reference %d B, AnalyzeTrace %d B)",
			ratio, refBytes, streamBytes)
	}
}
