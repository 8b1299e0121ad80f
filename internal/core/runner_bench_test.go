package core

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"mburst/internal/simclock"
	"mburst/internal/workload"
)

// benchConfig is the ISSUE's reference campaign: 4 racks × 4 windows.
func benchConfig(workers int) Config {
	cfg := QuickConfig()
	cfg.Racks = 4
	cfg.Windows = 4
	cfg.WindowDur = 30 * simclock.Millisecond
	cfg.Warmup = 5 * simclock.Millisecond
	cfg.Workers = workers
	return cfg
}

func runBenchCampaign(tb testing.TB, workers int) time.Duration {
	exp, err := NewExperiment(benchConfig(workers))
	if err != nil {
		tb.Fatal(err)
	}
	start := time.Now()
	if _, err := exp.refRunByteCampaign(context.Background(), workload.Hadoop, 0); err != nil {
		tb.Fatal(err)
	}
	return time.Since(start)
}

// BenchmarkRunnerCampaign contrasts the serial and parallel paths of the
// same 4-rack × 4-window byte campaign. Run with:
//
//	go test -run=^$ -bench=BenchmarkRunnerCampaign -benchtime=1x ./internal/core
func BenchmarkRunnerCampaign(b *testing.B) {
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"workers4", 4},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runBenchCampaign(b, bc.workers)
			}
		})
	}
}

// TestRunnerBenchArtifact measures serial vs. parallel wall-clock for the
// reference campaign and writes a JSON artifact, so CI tracks the perf
// trajectory across PRs. Gated on MBURST_BENCH_OUT (the artifact path) to
// keep ordinary test runs fast.
func TestRunnerBenchArtifact(t *testing.T) {
	out := os.Getenv("MBURST_BENCH_OUT")
	if out == "" {
		t.Skip("MBURST_BENCH_OUT not set")
	}
	serial := runBenchCampaign(t, 1)
	parallel := runBenchCampaign(t, 4)
	artifact := struct {
		Name       string  `json:"name"`
		Racks      int     `json:"racks"`
		Windows    int     `json:"windows"`
		Workers    int     `json:"workers"`
		CPUs       int     `json:"cpus"`
		SerialMs   float64 `json:"serial_ms"`
		ParallelMs float64 `json:"parallel_ms"`
		Speedup    float64 `json:"speedup"`
	}{
		Name:       "runner_campaign",
		Racks:      4,
		Windows:    4,
		Workers:    4,
		CPUs:       runtime.NumCPU(),
		SerialMs:   float64(serial.Microseconds()) / 1000,
		ParallelMs: float64(parallel.Microseconds()) / 1000,
		Speedup:    float64(serial) / float64(parallel),
	}
	data, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("serial %v, 4 workers %v (%.2fx)", serial, parallel, artifact.Speedup)
}
