package collector

import (
	"encoding/json"
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	"mburst/internal/eventq"
	"mburst/internal/ptrace"
	"mburst/internal/rng"
	"mburst/internal/simclock"
)

// runTracedPoll drives the hot path the tracing overhead gate measures:
// a dedicated-core poller emitting into a batching Client that frames
// onto io.Discard, for simDur of simulated time. When tr is non-nil the
// client records the full client-side span chain per flushed batch —
// exactly what mbagent -tracing adds to production polling.
func runTracedPoll(tb testing.TB, tr *ptrace.Tracer, simDur simclock.Duration) uint64 {
	tb.Helper()
	sw := testSwitch()
	client, err := NewClientConfigured(writeDiscard{}, ClientConfig{Rack: 3})
	if err != nil {
		tb.Fatal(err)
	}
	client.SetTracer(tr)
	p, err := NewPoller(PollerConfig{
		Interval:      simclock.Micros(25),
		Counters:      []CounterSpec{byteSpec(0)},
		DedicatedCore: true,
	}, sw, rng.New(1), client)
	if err != nil {
		tb.Fatal(err)
	}
	sched := eventq.NewScheduler()
	p.Install(sched)
	sched.RunUntil(simclock.Epoch.Add(simDur))
	if err := client.Close(); err != nil {
		tb.Fatal(err)
	}
	return p.Samples()
}

// writeDiscard adapts io.Discard to the Client's io.Writer without
// letting the benchmark accidentally measure a buffer.
type writeDiscard struct{}

func (writeDiscard) Write(p []byte) (int, error) { return io.Discard.Write(p) }

// measurePollWall times the polling loop, min-of-trials so scheduler
// noise on a shared CI host cannot inflate a single run.
func measurePollWall(tb testing.TB, tr *ptrace.Tracer, simDur simclock.Duration, trials int) (best time.Duration, samples uint64) {
	tb.Helper()
	best = time.Duration(1<<63 - 1)
	for i := 0; i < trials; i++ {
		start := time.Now()
		samples = runTracedPoll(tb, tr, simDur)
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best, samples
}

// TestPtraceOverheadArtifact measures the poller's wall-clock cost with
// and without span recording and publishes BENCH_ptrace.json. The ratio
// is a hard gate: tracing must cost under 5% on the polling hot path
// (ISSUE 6 acceptance). Gated on MBURST_PTRACE_BENCH_OUT so the
// measurement only runs in the dedicated CI step — wall-clock ratios are
// meaningless under the race detector.
func TestPtraceOverheadArtifact(t *testing.T) {
	out := os.Getenv("MBURST_PTRACE_BENCH_OUT")
	if out == "" {
		t.Skip("MBURST_PTRACE_BENCH_OUT not set")
	}
	const (
		simDur = 2 * simclock.Second
		trials = 5
		// maxRatio is the hard gate: traced polling must stay within 5%
		// of untraced. The measured overhead is typically well under 1%
		// (one 7-span chain per 2048-sample batch), so 5% leaves slack
		// for CI host noise without letting a regression through.
		maxRatio = 1.05
	)
	tracer := ptrace.New(ptrace.Config{Capacity: 1 << 16})

	// Warm both paths once so lazy init does not land in a trial.
	runTracedPoll(t, nil, 100*simclock.Millisecond)
	runTracedPoll(t, tracer, 100*simclock.Millisecond)

	base, samples := measurePollWall(t, nil, simDur, trials)
	traced, _ := measurePollWall(t, tracer, simDur, trials)
	ratio := float64(traced) / float64(base)

	artifact := struct {
		Name        string  `json:"name"`
		Samples     uint64  `json:"samples"`
		Trials      int     `json:"trials"`
		CPUs        int     `json:"cpus"`
		BaseNs      int64   `json:"base_ns"`
		TracedNs    int64   `json:"traced_ns"`
		Ratio       float64 `json:"ratio"`
		MaxRatio    float64 `json:"max_ratio"`
		SpansPerSec float64 `json:"spans_per_sec"`
	}{
		Name:        "ptrace_overhead",
		Samples:     samples,
		Trials:      trials,
		CPUs:        runtime.NumCPU(),
		BaseNs:      base.Nanoseconds(),
		TracedNs:    traced.Nanoseconds(),
		Ratio:       ratio,
		MaxRatio:    maxRatio,
		SpansPerSec: float64(tracer.Recorded()) / traced.Seconds(),
	}
	data, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("untraced %v, traced %v (%.3fx), %d samples", base, traced, ratio, samples)

	if ratio > maxRatio {
		t.Errorf("tracing overhead %.3fx exceeds the %.2fx gate (untraced %v, traced %v)",
			ratio, maxRatio, base, traced)
	}
}

// BenchmarkPtraceOverhead reports the per-run cost of the polling loop
// with and without span recording. Run with:
//
//	go test -run=^$ -bench=BenchmarkPtraceOverhead -benchtime=1x ./internal/collector
func BenchmarkPtraceOverhead(b *testing.B) {
	for _, bc := range []struct {
		name   string
		traced bool
	}{
		{"untraced", false},
		{"traced", true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var tr *ptrace.Tracer
				if bc.traced {
					tr = ptrace.New(ptrace.Config{Capacity: 1 << 16})
				}
				runTracedPoll(b, tr, simclock.Second)
			}
		})
	}
}
