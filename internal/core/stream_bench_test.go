package core

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"mburst/internal/analysis"
	"mburst/internal/simclock"
	"mburst/internal/trace"
	"mburst/internal/workload"
)

// recordStreamBenchTrace records the reference large-window campaign the
// memory comparison analyzes: one rack, four 400 ms windows, every port's
// byte counter at the 25 µs campaign interval — tens of thousands of
// samples per window, so the materializing reference's whole-window
// read dominates its footprint.
func recordStreamBenchTrace(tb testing.TB, dir string) {
	tb.Helper()
	cfg := QuickConfig()
	cfg.Servers = 8
	cfg.Windows = 4
	cfg.WindowDur = 400 * simclock.Millisecond
	exp, err := NewExperiment(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	err = exp.RecordCampaign(context.Background(), workload.Hadoop, dir,
		ByteCampaignInterval, "stream memory benchmark", AllPortCounters(false))
	if err != nil {
		tb.Fatal(err)
	}
}

// measureAnalyze runs analyze (AnalyzeTrace, or the materializing
// refAnalyzeTrace of equivalence_test.go) and reports its peak live-heap
// delta (sampled against a post-GC baseline) and its allocation
// footprint (TotalAlloc/Mallocs deltas). GC is tightened for the duration
// so transient garbage does not mask the difference between materializing
// whole windows and holding O(active series) state.
func measureAnalyze(tb testing.TB, dir, kind string, analyze analyzeFunc) (peak, allocBytes, mallocs uint64) {
	tb.Helper()
	r, err := trace.Open(dir)
	if err != nil {
		tb.Fatal(err)
	}

	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	prevGC := debug.SetGCPercent(20)
	defer debug.SetGCPercent(prevGC)

	var peakHeap atomic.Uint64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peakHeap.Load() {
				peakHeap.Store(ms.HeapAlloc)
			}
			select {
			case <-stop:
				return
			case <-time.After(100 * time.Microsecond):
			}
		}
	}()

	res, err := analyze(r, kind, analysis.DefaultHotThreshold)
	close(stop)
	<-done
	if err != nil {
		tb.Fatal(err)
	}
	runtime.KeepAlive(res)

	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	peak = peakHeap.Load()
	if peak > base.HeapAlloc {
		peak -= base.HeapAlloc
	} else {
		peak = 0
	}
	return peak, end.TotalAlloc - base.TotalAlloc, end.Mallocs - base.Mallocs
}

// TestStreamingMemoryArtifact compares AnalyzeTrace with the materializing
// reference on the reference campaign and publishes BENCH_stream.json
// (the "batch" fields are the reference's). Gated on
// MBURST_STREAM_BENCH_OUT so the measurement only runs in the dedicated CI
// step (it is meaningless under the race detector). The peak-memory ratio
// is a hard gate: AnalyzeTrace must hold at least 5x less than
// whole-window materialization.
func TestStreamingMemoryArtifact(t *testing.T) {
	out := os.Getenv("MBURST_STREAM_BENCH_OUT")
	if out == "" {
		t.Skip("MBURST_STREAM_BENCH_OUT not set")
	}
	dir := t.TempDir()
	recordStreamBenchTrace(t, dir)

	const kind = "bursts"
	peakBatch, allocBatch, mallocsBatch := measureAnalyze(t, dir, kind, refAnalyzeTrace)
	peakStream, allocStream, mallocsStream := measureAnalyze(t, dir, kind, AnalyzeTrace)

	// Both engines must still agree before their footprints are compared.
	r, err := trace.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	resBatch, err := refAnalyzeTrace(r, kind, analysis.DefaultHotThreshold)
	if err != nil {
		t.Fatal(err)
	}
	resStream, err := AnalyzeTrace(r, kind, analysis.DefaultHotThreshold)
	if err != nil {
		t.Fatal(err)
	}
	assertStreamEqual(t, "bench trace", resBatch, resStream)

	peakRatio := float64(peakBatch) / float64(peakStream)
	allocRatio := float64(allocBatch) / float64(allocStream)
	artifact := struct {
		Name          string  `json:"name"`
		Kind          string  `json:"kind"`
		Windows       int     `json:"windows"`
		CPUs          int     `json:"cpus"`
		PeakBatchB    uint64  `json:"peak_batch_bytes"`
		PeakStreamB   uint64  `json:"peak_stream_bytes"`
		PeakRatio     float64 `json:"peak_ratio"`
		AllocBatchB   uint64  `json:"alloc_batch_bytes"`
		AllocStreamB  uint64  `json:"alloc_stream_bytes"`
		AllocRatio    float64 `json:"alloc_ratio"`
		MallocsBatch  uint64  `json:"mallocs_batch"`
		MallocsStream uint64  `json:"mallocs_stream"`
	}{
		Name:          "stream_memory",
		Kind:          kind,
		Windows:       resBatch.Windows,
		CPUs:          runtime.NumCPU(),
		PeakBatchB:    peakBatch,
		PeakStreamB:   peakStream,
		PeakRatio:     peakRatio,
		AllocBatchB:   allocBatch,
		AllocStreamB:  allocStream,
		AllocRatio:    allocRatio,
		MallocsBatch:  mallocsBatch,
		MallocsStream: mallocsStream,
	}
	data, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("peak: batch %d B, stream %d B (%.1fx); allocs: batch %d B, stream %d B (%.1fx)",
		peakBatch, peakStream, peakRatio, allocBatch, allocStream, allocRatio)

	if peakRatio < 5 {
		t.Errorf("streaming peak memory only %.1fx below batch, want >= 5x (batch %d B, stream %d B)",
			peakRatio, peakBatch, peakStream)
	}
	if allocRatio < 5 {
		t.Errorf("streaming allocation footprint only %.1fx below batch, want >= 5x (batch %d B, stream %d B)",
			allocRatio, allocBatch, allocStream)
	}
}

// BenchmarkStreamingMemory reports the wall-clock and allocation profile
// of AnalyzeTrace and the materializing reference on the reference
// campaign. Run with:
//
//	go test -run=^$ -bench=BenchmarkStreamingMemory -benchtime=1x ./internal/core
func BenchmarkStreamingMemory(b *testing.B) {
	for _, bc := range []struct {
		name    string
		analyze analyzeFunc
	}{
		{"batch", refAnalyzeTrace},
		{"stream", AnalyzeTrace},
	} {
		b.Run(bc.name, func(b *testing.B) {
			dir := b.TempDir()
			recordStreamBenchTrace(b, dir)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := trace.Open(dir)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := bc.analyze(r, "bursts", analysis.DefaultHotThreshold); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
